package anneal

import (
	"math/bits"
	"slices"

	"explink/internal/topo"
)

// memoTable is the annealer's state memo: an insertion-ordered set of
// fixed-length packed matrix keys. Entry e's key lives at keys[e*words:], so
// the entry ordinal is also the position of the state's vector in the
// annealer's arena. Lookup is open addressing with linear probing over int32
// slots holding ordinal+1 (0 marks an empty slot); the slot array doubles and
// rehashes once it is half full. Keys are copied into one flat arena, so a
// miss allocates nothing until the presized arena or slot array overflows.
type memoTable struct {
	words int      // key length in 64-bit words
	keys  []uint64 // entry keys in insertion order, words each
	slots []int32  // ordinal+1 per slot, 0 when empty; length a power of two
}

// newMemoTable returns an empty table for keys of the given word length,
// presized so that hint entries fit without growing.
func newMemoTable(words, hint int) *memoTable {
	size := 8
	for size < 2*hint {
		size *= 2
	}
	return &memoTable{words: words, keys: make([]uint64, 0, hint*words), slots: make([]int32, size)}
}

// len returns the number of entries.
func (t *memoTable) len() int { return len(t.keys) / t.words }

// lookup returns the ordinal of key, or false if the table does not hold it.
func (t *memoTable) lookup(key []uint64) (int, bool) {
	mask := len(t.slots) - 1
	for s := int(hashKey(key)) & mask; ; s = (s + 1) & mask {
		e := int(t.slots[s]) - 1
		if e < 0 {
			return 0, false
		}
		if slices.Equal(t.keys[e*t.words:(e+1)*t.words], key) {
			return e, true
		}
	}
}

// add inserts key, which must be absent, and returns its ordinal.
func (t *memoTable) add(key []uint64) int {
	e := t.len()
	if 2*(e+1) > len(t.slots) {
		t.grow()
	}
	t.keys = append(t.keys, key...)
	t.place(e)
	return e
}

// place puts entry e into the first empty slot on its probe sequence.
func (t *memoTable) place(e int) {
	mask := len(t.slots) - 1
	s := int(hashKey(t.keys[e*t.words:(e+1)*t.words])) & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = int32(e + 1)
}

// grow doubles the slot array and rehashes every entry.
func (t *memoTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	for e := range t.len() {
		t.place(e)
	}
}

// packKey returns the matrix's bits packed into words: bit i sits in word
// i>>6 at position i&63 (AppendKey's byte packing read as little-endian
// words), so the annealer updates the key of a single-bit move with one XOR.
func packKey(m *topo.ConnMatrix) []uint64 {
	b := m.AppendKey(nil)
	key := make([]uint64, (len(b)+7)/8)
	for j, x := range b {
		key[j>>3] |= uint64(x) << (8 * (j & 7))
	}
	return key
}

// hashKey mixes every word of the key (an xxHash-style round per word, then
// the murmur3 finalizer), so keys one bit apart — the annealer's
// neighbours — spread across the low bits that pick the slot.
func hashKey(key []uint64) uint64 {
	var h uint64
	for _, w := range key {
		h = bits.RotateLeft64(h^(w*0xc2b2ae3d27d4eb4f), 31) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
