package anneal

import (
	"fmt"
	"slices"
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
)

// checkMemo asserts that every key in want is found with its ordinal and
// that none of the absent keys is.
func checkMemo(t *testing.T, tab *memoTable, want [][]uint64, absent [][]uint64) {
	t.Helper()
	if tab.len() != len(want) {
		t.Fatalf("len = %d, want %d", tab.len(), len(want))
	}
	for e, key := range want {
		if got, ok := tab.lookup(key); !ok || got != e {
			t.Fatalf("lookup(%x) = %d, %v, want %d, true", key, got, ok, e)
		}
	}
	for _, key := range absent {
		if got, ok := tab.lookup(key); ok {
			t.Fatalf("lookup(%x) of an absent key = %d, true", key, got)
		}
	}
}

func TestMemoTableForcedCollisions(t *testing.T) {
	// Keys chosen to share home slot 0 of an 8-slot table: each insert and
	// each lookup must walk the probe chain past the others.
	var same [][]uint64
	for w := uint64(0); len(same) < 6; w++ {
		if hashKey([]uint64{w})&7 == 0 {
			same = append(same, []uint64{w})
		}
	}
	tab := newMemoTable(1, 1)
	if len(tab.slots) != 8 {
		t.Fatalf("hint 1 gave %d slots, want 8", len(tab.slots))
	}
	for e, key := range same[:4] {
		if got := tab.add(key); got != e {
			t.Fatalf("add = %d, want %d", got, e)
		}
		checkMemo(t, tab, same[:e+1], same[e+1:])
	}
	if len(tab.slots) != 8 {
		t.Fatalf("half-full table grew to %d slots", len(tab.slots))
	}
	// The fifth key overfills half the table: it grows, and the chain survives.
	tab.add(same[4])
	if len(tab.slots) != 16 {
		t.Fatalf("table has %d slots after growth, want 16", len(tab.slots))
	}
	checkMemo(t, tab, same[:5], same[5:])
}

func TestMemoTableGrowthAndKeyShapes(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, words := range []int{1, 2, 8, 9, 17} {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			// Keys share everything but one word (or one bit of it), like
			// neighbouring annealer states; the table starts tiny and rehashes
			// several times on the way to 600 entries.
			base := make([]uint64, words)
			for i := range base {
				base[i] = rng.Uint64()
			}
			var keys [][]uint64
			seen := map[string]bool{}
			for len(keys) < 700 {
				key := slices.Clone(base)
				at := rng.Intn(words)
				if rng.Bool(0.5) {
					key[at] ^= 1 << rng.Intn(64)
				} else {
					key[at] = rng.Uint64()
				}
				if id := fmt.Sprint(key); !seen[id] {
					seen[id] = true
					keys = append(keys, key)
				}
			}
			tab := newMemoTable(words, 1)
			for e, key := range keys[:600] {
				if _, ok := tab.lookup(key); ok {
					t.Fatalf("key %d found before it was added", e)
				}
				buf := slices.Clone(key)
				if got := tab.add(buf); got != e {
					t.Fatalf("add = %d, want %d", got, e)
				}
				buf[0] ^= 1 // the table must have copied the key
				if e%97 == 0 {
					checkMemo(t, tab, keys[:e+1], keys[600:])
				}
			}
			checkMemo(t, tab, keys[:600], keys[600:])
			if len(tab.slots) < 2*600 {
				t.Fatalf("%d slots for 600 entries: load above one half", len(tab.slots))
			}
		})
	}
}

func TestPackKey(t *testing.T) {
	// packKey must put bit i at word i>>6, position i&63: the annealer keeps
	// the key in step with single-bit moves by XOR at exactly that spot.
	for _, sz := range []struct{ n, c int }{{3, 2}, {9, 2}, {16, 8}, {64, 12}} {
		m := topo.NewConnMatrix(sz.n, sz.c)
		key := packKey(m)
		if want := (m.Bits() + 63) / 64; len(key) != want {
			t.Fatalf("n=%d C=%d: %d words for %d bits, want %d", sz.n, sz.c, len(key), m.Bits(), want)
		}
		if slices.ContainsFunc(key, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("n=%d C=%d: empty matrix packed to %x", sz.n, sz.c, key)
		}
		for i := 0; i < m.Bits(); i += 7 {
			m.FlipAt(i)
			key[i>>6] ^= 1 << (i & 63)
			if got := packKey(m); !slices.Equal(got, key) {
				t.Fatalf("n=%d C=%d after flipping bit %d: packKey = %x, XOR-maintained key %x", sz.n, sz.c, i, got, key)
			}
		}
	}
}
