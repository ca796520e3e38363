package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"explink/internal/model"
	"explink/internal/topo"
)

// storeVersion salts every cache key with the placement-code generation: any
// change to the solvers that can alter a solution for the same inputs must
// bump it, so stale on-disk artifacts from an older binary become misses
// instead of silently wrong answers.
const storeVersion = "explink/placement/v1"

// StoredPlacement is the cacheable outcome of one line problem (see solve):
// a uniform row, a weighted line, or one piece of a frontier. Everything in
// it round-trips through encoding/json bit-identically (spans are ints;
// float64 marshals shortest-round-trip), so a cache hit reproduces the
// original solution exactly.
type StoredPlacement struct {
	Algo    Algorithm   `json:"algo"`
	C       int         `json:"c"`
	N       int         `json:"n"`
	Express []topo.Span `json:"express,omitempty"`
	Eval    model.Eval  `json:"eval"`
	Evals   int64       `json:"evals"`
	// Objs is the canonical objective vector of a frontier entry (ParetoSA
	// solves only); Count is the archive size recorded by a frontier meta
	// entry. Both are omitempty so scalar entries keep their pre-frontier
	// bytes and addresses.
	Objs  []float64 `json:"objs,omitempty"`
	Count int       `json:"count,omitempty"`
}

// Row reconstructs the placement row.
func (sp StoredPlacement) Row() topo.Row {
	return topo.Row{N: sp.N, Express: sp.Express}
}

// StoreCounters is a snapshot of a store's effectiveness counters.
type StoreCounters struct {
	// Solves counts cache misses that ran a real solve (each distinct key is
	// solved at most once per store thanks to single-flight deduplication).
	Solves int64 `json:"solves"`
	// Hits counts solves answered from memory, including callers that waited
	// on an in-flight computation of the same key.
	Hits int64 `json:"hits"`
	// DiskHits counts solves answered from the on-disk cache (a warm
	// -cache-dir run reports Solves == 0 and DiskHits > 0).
	DiskHits int64 `json:"diskHits"`
	// Swept counts stale temp files removed when the store was opened —
	// leftovers of atomic writes interrupted by a kill.
	Swept int64 `json:"swept,omitempty"`
}

func (c StoreCounters) String() string {
	s := fmt.Sprintf("solves=%d hits=%d disk=%d", c.Solves, c.Hits, c.DiskHits)
	if c.Swept > 0 {
		s += fmt.Sprintf(" swept=%d", c.Swept)
	}
	return s
}

// PlacementStore is a content-addressed cache of placement solves shared by
// every experiment: the canonical key covers everything that determines a
// solution (network size, link limit, bandwidth budget, packet mix, timing
// parameters, objective weights, algorithm, seed and annealing budget), so
// two solves with the same key are bit-identical and the second one can be
// answered from the store.
//
// The store is an in-memory map with optional on-disk persistence (one JSON
// file per key under Dir). Lookups of a key being computed block until the
// computation finishes (single-flight), which is what makes a parallel
// `expbench -exp all` issue each distinct solve exactly once. Corrupt or
// mismatched disk entries are treated as misses, never as errors. All methods
// are safe for concurrent use.
type PlacementStore struct {
	dir string

	// mem and inflight are keyed by the SHA-256 digest of the key preimage;
	// its hex form (the disk file name) is derived only on a memory miss.
	mu       sync.Mutex
	mem      map[digest]StoredPlacement
	inflight map[digest]chan struct{}
	counters StoreCounters
}

// digest is the raw content address of a key preimage.
type digest = [sha256.Size]byte

// NewPlacementStore returns a store; dir == "" keeps it memory-only, any
// other value also persists entries under dir (created if missing). Opening
// a persistent store sweeps temp files left behind by interrupted writes
// (see sweepTemp); the count lands in Counters().Swept.
func NewPlacementStore(dir string) (*PlacementStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: placement store dir: %w", err)
		}
	}
	st := &PlacementStore{
		dir:      dir,
		mem:      make(map[digest]StoredPlacement),
		inflight: make(map[digest]chan struct{}),
	}
	st.counters.Swept = sweepTemp(dir, tempSweepAge)
	return st, nil
}

// tempSweepAge guards the open-time sweep: only temp files at least this old
// are removed, so a concurrent store writing into the same directory never
// loses an in-progress file to another process's open.
const tempSweepAge = time.Hour

// sweepTemp removes stale "<addr>.tmp*" files under dir — the debris of
// saveDisk's atomic write pattern when the process is killed between
// CreateTemp and Rename. Returns how many files were removed; every failure
// mode (unreadable dir, vanished file) is skipped silently, matching the
// cache's best-effort persistence.
func sweepTemp(dir string, minAge time.Duration) int64 {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-minAge)
	var swept int64
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			swept++
		}
	}
	return swept
}

// Counters returns a snapshot of the effectiveness counters.
func (st *PlacementStore) Counters() StoreCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.counters
}

// Len returns the number of cached entries in memory: the core_store_len
// gauge that a scrape of `expbench -debug-addr`'s /metrics reads.
func (st *PlacementStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.mem)
}

// GetOrCompute answers the canonical key preimage from cache, or runs
// compute exactly once per key (concurrent callers of the same key wait and
// share the result). A failed compute caches nothing — the error propagates
// to every waiter and a later call retries, so a cancelled run never poisons
// the store. The bool reports whether the result came from cache. Stored
// placements hold their express spans in canonical order, and callers share
// the stored slice: nothing may write through it. The key is hashed in place
// and not retained, so a caller may build it in a stack buffer; only a
// memory miss copies it, as the string the disk entry is checked against.
func (st *PlacementStore) GetOrCompute(key []byte, compute func() (StoredPlacement, error)) (StoredPlacement, bool, error) {
	sum := sha256.Sum256(key)
	st.mu.Lock()
	for {
		if sp, ok := st.mem[sum]; ok {
			st.counters.Hits++
			st.mu.Unlock()
			return sp, true, nil
		}
		fl, ok := st.inflight[sum]
		if !ok {
			break
		}
		// Someone is solving this key right now: wait, then re-check. If the
		// compute failed nothing was cached and we take over.
		st.mu.Unlock()
		<-fl
		st.mu.Lock()
	}
	// Register the in-flight marker before touching the disk, then do every
	// read/write outside the mutex: a slow disk (or N workers hammering one
	// shared -cache-dir over NFS) must stall only callers of this key, never
	// every concurrent memory hit. Same-key callers wait on fl as usual.
	fl := make(chan struct{})
	st.inflight[sum] = fl
	st.mu.Unlock()

	addr, skey := hexAddress(sum), string(key)
	if sp, ok := st.loadDisk(addr, skey); ok {
		sp = sp.canonical()
		st.mu.Lock()
		st.mem[sum] = sp
		delete(st.inflight, sum)
		st.counters.Hits++
		st.counters.DiskHits++
		close(fl)
		st.mu.Unlock()
		return sp, true, nil
	}

	st.mu.Lock()
	st.counters.Solves++
	st.mu.Unlock()

	sp, err := compute()

	if err == nil {
		st.saveDisk(addr, skey, sp)
		sp = sp.canonical()
	}
	st.mu.Lock()
	delete(st.inflight, sum)
	if err == nil {
		st.mem[sum] = sp
	}
	close(fl)
	st.mu.Unlock()
	if err != nil {
		return StoredPlacement{}, false, err
	}
	return sp, false, nil
}

// canonical returns sp with its express spans in canonical order, copying
// them only when they are not sorted already.
func (sp StoredPlacement) canonical() StoredPlacement {
	if !slices.IsSortedFunc(sp.Express, topo.CompareSpans) {
		sp.Express = sp.Row().Canonical().Express
	}
	return sp
}

// hexAddress is the content address of a key preimage's digest: its hex
// form, which names the key's disk file.
func hexAddress(sum digest) string {
	var addr [2 * sha256.Size]byte
	hex.Encode(addr[:], sum[:])
	return string(addr[:])
}

// diskEntry is the persisted form: the full key preimage rides along so a
// load can verify the entry answers exactly the question being asked (guards
// against truncated writes, manual edits and — in principle — collisions).
type diskEntry struct {
	Key       string          `json:"key"`
	Placement StoredPlacement `json:"placement"`
}

func (st *PlacementStore) path(addr string) string {
	return filepath.Join(st.dir, addr+".json")
}

// loadDisk reads and validates one entry; every failure mode is a miss.
// Called without st.mu (it touches only the immutable dir), so slow disk
// reads never block concurrent memory hits.
func (st *PlacementStore) loadDisk(addr, key string) (StoredPlacement, bool) {
	if st.dir == "" {
		return StoredPlacement{}, false
	}
	buf, err := os.ReadFile(st.path(addr))
	if err != nil {
		return StoredPlacement{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return StoredPlacement{}, false
	}
	if e.Key != key {
		return StoredPlacement{}, false
	}
	sp := e.Placement
	if sp.N < 1 || sp.C < 1 || sp.Evals < 0 || sp.Count < 0 {
		return StoredPlacement{}, false
	}
	if err := sp.Row().Validate(sp.C); err != nil {
		return StoredPlacement{}, false
	}
	return sp, true
}

// saveDisk persists one entry atomically (write and fsync a temp file, then
// rename); persistence failures are ignored — the cache is an accelerator,
// not a system of record. Called without st.mu: the temp-file + rename
// pattern is already safe against concurrent writers of the same address
// (including other processes sharing the directory), and keeping the write
// off the lock keeps one slow disk from serializing the whole store.
func (st *PlacementStore) saveDisk(addr, key string, sp StoredPlacement) {
	if st.dir == "" {
		return
	}
	buf, err := json.MarshalIndent(diskEntry{Key: key, Placement: sp}, "", "  ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(st.dir, addr+".tmp*")
	if err != nil {
		return
	}
	// Sync before the rename: otherwise a crash after it can leave the
	// entry's name pointing at data that never reached the disk.
	_, werr := tmp.Write(append(buf, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), st.path(addr)); err != nil {
		os.Remove(tmp.Name())
	}
}

// ---- canonical key derivation ----

// The key preimage is a newline-separated list of "name=value" fields built
// by appending into one buffer. Its bytes are the store's on-disk contract:
// they must stay exactly what the fmt-based builder the format was defined
// with prints (store_test.go keeps it as the oracle), or every stored
// address changes.

// keyBufSize covers a default-config row or frontier preimage, so building
// one in a stack buffer of this size allocates nothing.
const keyBufSize = 320

// appendNum appends a float with the shortest representation that
// round-trips, so the preimage is canonical for every representable value.
func appendNum(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendKey appends the canonical key preimage of line problem lp on s.
// First come the solver-wide fields: everything on the Solver that can
// change a solution. Workers is excluded, because output is bit-identical
// for any worker count. Then come the problem's kind, algorithm and C, and
// the fields of its kind. A weighted line adds its index and weight matrix:
// two lines with identical weights still draw from distinct RNG streams. A
// frontier adds its archive cap, objective list and power coefficients.
func (s *Solver) appendKey(b []byte, lp *lineProblem) []byte {
	b = append(b, storeVersion...)
	b = append(b, "\nn="...)
	b = appendInt(b, s.Cfg.N)
	b = append(b, "\nparams="...)
	b = appendNum(b, float64(s.Cfg.Params.RouterDelay))
	b = append(b, ',')
	b = appendNum(b, float64(s.Cfg.Params.LinkDelay))
	b = append(b, ',')
	b = appendNum(b, float64(s.Cfg.Params.Contention))
	b = append(b, "\nmix="...)
	for i, c := range s.Cfg.Mix {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, c.Name...)
		b = append(b, ':')
		b = appendInt(b, c.Bits)
		b = append(b, ':')
		b = appendNum(b, c.Frac)
	}
	b = append(b, "\nbw="...)
	b = appendInt(b, s.Cfg.BW.BaseWidth)
	b = append(b, ',')
	b = appendInt(b, s.Cfg.BW.MaxWidth)
	b = append(b, ',')
	b = appendInt(b, s.Cfg.BW.MinWidth)
	b = append(b, "\nworst="...)
	b = appendNum(b, s.WorstWeight)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, s.Seed, 10)
	b = append(b, "\nsched="...)
	b = appendNum(b, s.Sched.T0)
	b = append(b, ',')
	b = appendInt(b, s.Sched.Moves)
	b = append(b, ',')
	b = appendInt(b, s.Sched.CoolEvery)
	b = append(b, ',')
	b = appendNum(b, s.Sched.CoolDiv)
	b = append(b, ',')
	b = appendInt(b, s.Sched.StopAfterNoImprove)
	b = append(b, "\nkind="...)
	b = append(b, lp.kind...)
	b = append(b, "\nalgo="...)
	b = append(b, lp.algo...)
	b = append(b, "\nc="...)
	b = appendInt(b, lp.c)
	b = append(b, '\n')
	switch lp.kind {
	case "line":
		b = append(b, "salt="...)
		b = strconv.AppendInt(b, lp.line, 10)
		b = append(b, "\nweights="...)
		for i, row := range lp.w {
			if i > 0 {
				b = append(b, ';')
			}
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendNum(b, v)
			}
		}
		b = append(b, '\n')
	case "pareto":
		b = append(b, "archive="...)
		b = appendInt(b, lp.spec.ArchiveCap)
		b = append(b, "\nobjectives="...)
		for i, o := range lp.spec.Objectives {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, o...)
		}
		st, pm := lp.spec.Power.Static, lp.spec.Power
		b = append(b, "\npower="...)
		b = appendNum(b, st.BufPerBit)
		b = append(b, ',')
		b = appendNum(b, st.XbarPerBK2)
		b = append(b, ',')
		b = appendNum(b, st.OtherPerPort)
		b = append(b, ',')
		b = appendNum(b, st.OtherBase)
		b = append(b, ',')
		b = appendInt(b, pm.BufBitsPerRouter)
		b = append(b, ',')
		b = appendNum(b, pm.WirePerBitUnit)
		b = append(b, '\n')
	}
	return b
}
