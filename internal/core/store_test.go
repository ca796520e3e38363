package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"explink/internal/model"
	"explink/internal/power"
	"explink/internal/runctl"
	"explink/internal/stats"
)

// keyAddress is the disk address of a key preimage: the name
// GetOrCompute gives its file.
func keyAddress(key string) string { return hexAddress(sha256.Sum256([]byte(key))) }

// rowKey, lineKey and paretoKey are appendKey's preimages of the three kinds
// of line problem, as strings.
func (s *Solver) rowKey(c int, algo Algorithm) string {
	return string(s.appendKey(nil, &lineProblem{kind: "row", c: c, algo: algo}))
}

func (s *Solver) lineKey(c int, algo Algorithm, w [][]float64, salt int64) string {
	return string(s.appendKey(nil, &lineProblem{kind: "line", c: c, algo: algo, w: w, line: salt}))
}

func (s *Solver) paretoKey(c int, spec ParetoSpec) string {
	return string(s.appendKey(nil, &lineProblem{kind: "pareto", c: c, algo: ParetoSA, spec: &spec}))
}

func quickSolver(n int) *Solver {
	s := NewSolver(model.DefaultConfig(n))
	s.Sched = s.Sched.WithMoves(800)
	return s
}

// Every input the issue names for the canonical key — n, C, seed, budget
// (Quick schedules), method and packet mix — must produce a distinct key, or
// the cache would alias solves that can differ.
func TestStoreKeyCanonicalization(t *testing.T) {
	base := func() *Solver { return quickSolver(8) }
	mutations := map[string]func() (s *Solver, c int, algo Algorithm){
		"base":     func() (*Solver, int, Algorithm) { return base(), 4, DCSA },
		"n":        func() (*Solver, int, Algorithm) { return quickSolver(16), 4, DCSA },
		"c":        func() (*Solver, int, Algorithm) { return base(), 2, DCSA },
		"algo":     func() (*Solver, int, Algorithm) { return base(), 4, OnlySA },
		"initonly": func() (*Solver, int, Algorithm) { return base(), 4, InitOnly },
		"seed": func() (*Solver, int, Algorithm) {
			s := base()
			s.Seed = 2
			return s, 4, DCSA
		},
		"budget": func() (*Solver, int, Algorithm) {
			s := base()
			s.Sched = s.Sched.WithMoves(1500) // the Quick-vs-full budget split
			return s, 4, DCSA
		},
		"stop": func() (*Solver, int, Algorithm) {
			s := base()
			s.Sched.StopAfterNoImprove = 1000 // fig12's convergence measurement
			return s, 4, DCSA
		},
		"mix": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.Mix = []model.PacketClass{{Name: "uni", Bits: 256, Frac: 1}}
			return s, 4, DCSA
		},
		"bw": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.BW.BaseWidth = 1024 // fig11's bandwidth scenarios
			return s, 4, DCSA
		},
		"worst": func() (*Solver, int, Algorithm) {
			s := base()
			s.WorstWeight = 0.5
			return s, 4, DCSA
		},
		"params": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.Params.RouterDelay = 4
			return s, 4, DCSA
		},
	}
	seen := map[string]string{}
	for name, mk := range mutations {
		s, c, algo := mk()
		key := s.rowKey(c, algo)
		if prev, dup := seen[key]; dup {
			t.Fatalf("key for %q aliases %q:\n%s", name, prev, key)
		}
		seen[key] = name
	}
	// Workers must NOT be part of the key: output is worker-count invariant.
	a, b := base(), base()
	b.Workers = 1
	if a.rowKey(4, DCSA) != b.rowKey(4, DCSA) {
		t.Fatal("Workers leaked into the cache key")
	}
}

func TestStoreLineKeyDistinctFromRowAndWeights(t *testing.T) {
	s := quickSolver(8)
	w0 := make([][]float64, 8)
	w1 := make([][]float64, 8)
	for i := range w0 {
		w0[i] = make([]float64, 8)
		w1[i] = make([]float64, 8)
	}
	w1[0][7] = 1.5
	keys := []string{
		s.rowKey(4, DCSA),
		s.lineKey(4, DCSA, w0, 0),
		s.lineKey(4, DCSA, w0, 1), // same weights, different line salt
		s.lineKey(4, DCSA, w1, 0), // same salt, different weights
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("keys %d and %d alias:\n%s", i, j, keys[i])
			}
		}
	}
}

func TestStoreSecondSolveIsBitIdenticalHit(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	first, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != 0 {
		t.Fatalf("after first solve: %v", c)
	}
	second, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit not bit-identical:\n%v\nvs\n%v", first, second)
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != 1 {
		t.Fatalf("after second solve: %v", c)
	}
	// The cached solution matches what an uncached solver produces.
	bare := quickSolver(8)
	want, err := bare.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("stored solve diverged from uncached solve:\n%v\nvs\n%v", first, want)
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	cold, _, err := s.Optimize(context.Background(), DCSA)
	if err != nil {
		t.Fatal(err)
	}
	solves := st.Counters().Solves
	if solves == 0 {
		t.Fatal("no solves recorded")
	}

	// A fresh store over the same directory answers everything from disk.
	warm, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := quickSolver(8)
	s2.Store = warm
	hot, _, err := s2.Optimize(context.Background(), DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := warm.Counters(); c.Solves != 0 || c.DiskHits != solves {
		t.Fatalf("warm run should be disk-only: %v (cold solves %d)", c, solves)
	}
	if !reflect.DeepEqual(cold, hot) {
		t.Fatalf("disk round trip not bit-identical:\n%v\nvs\n%v", cold, hot)
	}
}

// Corrupt on-disk entries must count as misses (recompute), never as errors.
func TestStoreCorruptDiskEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	want, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, err = %v", files, err)
	}

	corruptions := map[string]string{
		"garbage":   "{not json",
		"wrong key": `{"key":"somebody else's question","placement":{"algo":"D&C_SA","c":4,"n":8,"evals":1}}`,
		"bad row":   `{"key":"%KEY%","placement":{"algo":"D&C_SA","c":4,"n":8,"express":[{"From":0,"To":99}],"evals":1}}`,
		"empty":     "",
	}
	key := s.rowKey(4, DCSA)
	for name, content := range corruptions {
		body := content
		if body != "" {
			body = replaceAll(body, "%KEY%", key)
		}
		if err := os.WriteFile(files[0], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlacementStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s3 := quickSolver(8)
		s3.Store = fresh
		got, err := s3.SolveRow(context.Background(), 4, DCSA)
		if err != nil {
			t.Fatalf("%s: corrupt entry surfaced as error: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recompute after corruption diverged", name)
		}
		if c := fresh.Counters(); c.Solves != 1 || c.DiskHits != 0 {
			t.Fatalf("%s: corrupt entry should be a miss: %v", name, c)
		}
	}
}

// Concurrent solves of the same key must collapse to one real solve.
func TestStoreSingleFlight(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]RowSolution, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := quickSolver(8)
			s.Store = st
			results[i], errs[i] = s.SolveRow(context.Background(), 4, DCSA)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d saw a different solution", i)
		}
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != goroutines-1 {
		t.Fatalf("single-flight violated: %v", c)
	}
}

// A cancelled solve must not poison the cache: the error propagates, nothing
// is stored, and a later solve succeeds.
func TestStoreFailedComputeNotCached(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveRow(ctx, 4, DCSA); !errors.Is(err, runctl.ErrCancelled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("failed solve was cached (%d entries)", st.Len())
	}
	if _, err := s.SolveRow(context.Background(), 4, DCSA); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("retry not cached (%d entries)", st.Len())
	}
}

// SolveWeighted routes per-line solves through the store: a repeated call is
// answered without new solves and reproduces the solution exactly.
func TestStoreWeightedLineReuse(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	gamma := make([][]float64, 64)
	for i := range gamma {
		gamma[i] = make([]float64, 64)
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if i != j && rng.Bool(0.2) {
				gamma[i][j] = float64(1 + rng.Intn(4))
			}
		}
	}
	w, err := WeightsFromMatrix(8, gamma)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	solves := st.Counters().Solves
	if solves != 16 { // 2n line problems on an 8x8 network
		t.Fatalf("line solves = %d, want 16", solves)
	}
	second, err := s.SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Solves != solves {
		t.Fatalf("repeat run issued new solves: %v", c)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("weighted reuse not bit-identical")
	}
}

func replaceAll(s, old, new string) string {
	for {
		i := indexOf(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestStoreSweepsStaleTempFiles pins the open-time sweep: temp files older
// than the age guard (the debris of saveDisk writes interrupted by a kill)
// are removed and counted, while fresh temp files and real entries survive.
func TestStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()

	stale := filepath.Join(dir, "deadbeef.tmp123456")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempSweepAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "cafebabe.tmp999")
	if err := os.WriteFile(fresh, []byte("in-progress"), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, "0123abcd.json")
	if err := os.WriteFile(entry, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Counters().Swept; got != 1 {
		t.Fatalf("Swept = %d, want 1", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file removed: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("real cache entry removed: %v", err)
	}

	// The counter string mentions sweeps only when something was swept, so
	// the long-standing "solves=0 hits=..." grep contracts keep matching.
	if s := st.Counters().String(); !strings.Contains(s, "swept=1") {
		t.Fatalf("counters string %q missing swept count", s)
	}
	clean, err := NewPlacementStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s := clean.Counters().String(); strings.Contains(s, "swept") {
		t.Fatalf("clean store advertises sweeps: %q", s)
	}

	// A memory-only store has nothing to sweep.
	mem, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	if mem.Counters().Swept != 0 {
		t.Fatal("memory-only store reported sweeps")
	}
}

// TestStoreCrossProcessSharedDir models N worker processes sharing one
// -cache-dir (the sweep fabric's deployment shape) with two independent
// store instances over one directory: concurrent GetOrCompute of the same
// key must both succeed with bit-identical results (single-flight is
// per-process, so each store may solve once — but the atomic temp+rename
// write keeps the disk entry valid under the collision), and a third store
// opening the directory afterwards must answer purely from disk.
func TestStoreCrossProcessSharedDir(t *testing.T) {
	dir := t.TempDir()
	solve := func(st *PlacementStore) (RowSolution, error) {
		s := quickSolver(6)
		s.Store = st
		return s.SolveRow(context.Background(), 3, DCSA)
	}

	stA, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		sols [2]RowSolution
		errs [2]error
	)
	for i, st := range []*PlacementStore{stA, stB} {
		wg.Add(1)
		go func(i int, st *PlacementStore) {
			defer wg.Done()
			sols[i], errs[i] = solve(st)
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(sols[0], sols[1]) {
		t.Fatalf("stores disagree:\n%+v\n%+v", sols[0], sols[1])
	}
	for i, st := range []*PlacementStore{stA, stB} {
		if c := st.Counters(); c.Solves > 1 {
			t.Fatalf("store %d solved %d times", i, c.Solves)
		}
	}

	stC, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve(stC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol, sols[0]) {
		t.Fatalf("disk round-trip disagrees:\n%+v\n%+v", sol, sols[0])
	}
	if c := stC.Counters(); c.Solves != 0 || c.DiskHits != 1 {
		t.Fatalf("third store did not answer from disk: %v", c)
	}
}

// TestStoreDiskProbeDoesNotBlockMemoryHits pins the lock scope of the
// store's disk path: while one key's compute (registered in-flight, mutex
// released) is stalled, memory hits on other keys must complete immediately.
func TestStoreDiskProbeDoesNotBlockMemoryHits(t *testing.T) {
	st, err := NewPlacementStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seed := StoredPlacement{Algo: DCSA, C: 1, N: 4, Eval: model.Eval{}, Evals: 1}
	if _, _, err := st.GetOrCompute([]byte("hot"), func() (StoredPlacement, error) { return seed, nil }); err != nil {
		t.Fatal(err)
	}

	enterSlow := make(chan struct{})
	releaseSlow := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		st.GetOrCompute([]byte("cold"), func() (StoredPlacement, error) {
			close(enterSlow)
			<-releaseSlow
			return seed, nil
		})
	}()
	<-enterSlow

	// The cold key's compute holds no lock: hot hits must not queue behind it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, cached, err := st.GetOrCompute([]byte("hot"), nil); err != nil || !cached {
			t.Errorf("hot hit failed: cached=%v err=%v", cached, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("memory hit blocked behind an in-flight compute")
	}
	close(releaseSlow)
	<-slowDone
}

// ---- key-preimage oracle ----
//
// The fmt-based builder below is the one the store's preimage format was
// defined with. Production builds the same bytes by appending; any drift
// would move every stored address, so the two are compared field by field.

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtConfigKey(s *Solver, b *strings.Builder) {
	b.WriteString(storeVersion)
	b.WriteByte('\n')
	fmt.Fprintf(b, "n=%d\n", s.Cfg.N)
	fmt.Fprintf(b, "params=%s,%s,%s\n",
		fmtNum(float64(s.Cfg.Params.RouterDelay)), fmtNum(float64(s.Cfg.Params.LinkDelay)), fmtNum(float64(s.Cfg.Params.Contention)))
	b.WriteString("mix=")
	for i, c := range s.Cfg.Mix {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(b, "%s:%d:%s", c.Name, c.Bits, fmtNum(c.Frac))
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "bw=%d,%d,%d\n", s.Cfg.BW.BaseWidth, s.Cfg.BW.MaxWidth, s.Cfg.BW.MinWidth)
	fmt.Fprintf(b, "worst=%s\n", fmtNum(s.WorstWeight))
	fmt.Fprintf(b, "seed=%d\n", s.Seed)
	fmt.Fprintf(b, "sched=%s,%d,%d,%s,%d\n",
		fmtNum(s.Sched.T0), s.Sched.Moves, s.Sched.CoolEvery, fmtNum(s.Sched.CoolDiv), s.Sched.StopAfterNoImprove)
}

func fmtRowKey(s *Solver, c int, algo Algorithm) string {
	var b strings.Builder
	fmtConfigKey(s, &b)
	fmt.Fprintf(&b, "kind=row\nalgo=%s\nc=%d\n", algo, c)
	return b.String()
}

func fmtLineKey(s *Solver, c int, algo Algorithm, w [][]float64, salt int64) string {
	var b strings.Builder
	fmtConfigKey(s, &b)
	fmt.Fprintf(&b, "kind=line\nalgo=%s\nc=%d\nsalt=%d\nweights=", algo, c, salt)
	for i, row := range w {
		if i > 0 {
			b.WriteByte(';')
		}
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(fmtNum(v))
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func fmtParetoKey(s *Solver, c int, spec ParetoSpec) string {
	var b strings.Builder
	fmtConfigKey(s, &b)
	fmt.Fprintf(&b, "kind=pareto\nalgo=%s\nc=%d\narchive=%d\n", ParetoSA, c, spec.ArchiveCap)
	b.WriteString("objectives=")
	for i, o := range spec.Objectives {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(o))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "power=%s,%s,%s,%s,%d,%s\n",
		fmtNum(spec.Power.Static.BufPerBit), fmtNum(spec.Power.Static.XbarPerBK2),
		fmtNum(spec.Power.Static.OtherPerPort), fmtNum(spec.Power.Static.OtherBase),
		spec.Power.BufBitsPerRouter, fmtNum(spec.Power.WirePerBitUnit))
	return b.String()
}

// TestStoreKeysMatchFmtOracle compares the appended preimages with the fmt
// oracle across solvers whose every key field is pushed to an edge: edited
// params (10⁶ prints as 1e+06, and ints past 2^53 round as float64s) and mix, the largest seed, negative zero, tiny and huge floats, and
// several objective lists and power models.
func TestStoreKeysMatchFmtOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	solvers := map[string]func() *Solver{
		"default": func() *Solver { return NewSolver(model.DefaultConfig(8)) },
		"quick16": func() *Solver { return quickSolver(16) },
		"params": func() *Solver {
			s := NewSolver(model.DefaultConfig(8))
			s.Cfg.Params = model.Params{RouterDelay: 1_000_000, LinkDelay: 1<<53 + 1, Contention: 7}
			return s
		},
		"mix": func() *Solver {
			s := NewSolver(model.DefaultConfig(8))
			s.Cfg.Mix = []model.PacketClass{
				{Name: "ctl", Bits: 64, Frac: 0.1},
				{Name: "data", Bits: 576, Frac: 0.7},
				{Name: "", Bits: -8, Frac: 0.2},
			}
			return s
		},
		"edges": func() *Solver {
			s := NewSolver(model.DefaultConfig(2))
			s.Seed = math.MaxUint64
			s.WorstWeight = negZero
			s.Cfg.Mix = nil
			s.Cfg.BW = model.Bandwidth{BaseWidth: math.MaxInt, MaxWidth: math.MinInt, MinWidth: 0}
			s.Cfg.Params.Contention = math.MaxInt
			s.Sched.T0 = 1e21
			s.Sched.Moves = math.MaxInt
			s.Sched.CoolDiv = 1e-7
			s.Sched.StopAfterNoImprove = -1
			return s
		},
	}
	weights := map[string][][]float64{
		"nil":    nil,
		"zeros":  {{0, 0}, {0, 0}},
		"tiny":   {{5e-324, 1e-7, 1e-6}, {negZero, 0.1, 1e21}, {1e20, 123456789, math.MaxFloat64}},
		"ragged": {{1}, {}, {2.5, 3}},
	}
	def := power.DefaultModel()
	edited := def
	edited.Static.BufPerBit = 1e-12
	edited.BufBitsPerRouter = -3
	edited.WirePerBitUnit = negZero
	specs := map[string]ParetoSpec{
		"empty":   {},
		"default": {Objectives: AllObjectives, ArchiveCap: 64, Power: def},
		"two":     {Objectives: []Objective{ObjLatency, ObjPower}, ArchiveCap: 1, Power: def},
		"one":     {Objectives: []Objective{ObjWiring}, ArchiveCap: math.MaxInt, Power: edited},
		"odd":     {Objectives: []Objective{"", "x,y"}, ArchiveCap: -1, Power: edited},
	}
	for sname, mk := range solvers {
		s := mk()
		for _, algo := range []Algorithm{DCSA, OnlySA, InitOnly} {
			for _, c := range []int{1, 4, math.MaxInt, -2} {
				if got, want := s.rowKey(c, algo), fmtRowKey(s, c, algo); got != want {
					t.Fatalf("%s rowKey(%d, %s):\n got %q\nwant %q", sname, c, algo, got, want)
				}
				for wname, w := range weights {
					for _, salt := range []int64{0, -7, math.MaxInt64} {
						if got, want := s.lineKey(c, algo, w, salt), fmtLineKey(s, c, algo, w, salt); got != want {
							t.Fatalf("%s lineKey(%d, %s, %s, %d):\n got %q\nwant %q", sname, c, algo, wname, salt, got, want)
						}
					}
				}
			}
		}
		for pname, spec := range specs {
			if got, want := s.paretoKey(4, spec), fmtParetoKey(s, 4, spec); got != want {
				t.Fatalf("%s paretoKey(%s):\n got %q\nwant %q", sname, pname, got, want)
			}
		}
	}
}

// FuzzStoreKey holds the store's digests to the fmt oracle: for arbitrary
// solver fields, mix fractions, weights, line salt and link limit, the
// digest of every kind of preimage appendKey builds in a stack buffer (as
// solve does) equals sha256 of the oracle's preimage.
func FuzzStoreKey(f *testing.F) {
	f.Add(8, uint64(1), 0.0, 10.0, 10000, 1000, 2.0, 0, 0.8, 0.2, 1.0, 0.0, int64(3), 4)
	f.Add(16, uint64(1<<63+7), 0.5, 1e21, 800, 80, 1e-7, 1000, 0.1, 0.9, 5e-324, math.MaxFloat64, int64(-7), 8)
	f.Add(2, uint64(0), math.Copysign(0, -1), 0.0, -1, 0, 0.0, -1, 0.0, 1.0, 123456789.0, 1e-6, int64(math.MaxInt64), 1)
	// Short decimals, which the key builder prints by its integer path, up
	// to where shortest 'g' switches to exponent form at 1e6.
	f.Add(8, uint64(3), 0.25, 999999.9999, 10000, 1000, 1.0001, 0, 0.0001, 0.9999, 1e6, 123.456, int64(0), 2)
	f.Add(4, uint64(9), -0.5, 1e-3, 7, 3, 2.5, 9, 0.30000000000000004, -12.75, math.Nextafter(1e6, 0), 0.00015, int64(1), 3)
	f.Fuzz(func(t *testing.T, n int, seed uint64, worst, t0 float64, moves, coolEvery int, coolDiv float64,
		stop int, frac0, frac1, w0, w1 float64, salt int64, c int) {
		s := NewSolver(model.DefaultConfig(n))
		s.Seed, s.WorstWeight = seed, worst
		s.Sched.T0, s.Sched.Moves, s.Sched.CoolEvery, s.Sched.CoolDiv, s.Sched.StopAfterNoImprove = t0, moves, coolEvery, coolDiv, stop
		s.Cfg.Mix = []model.PacketClass{{Name: "short", Bits: 128, Frac: frac0}, {Name: "long", Bits: 512, Frac: frac1}}
		w := [][]float64{{0, w0, w1}, {w1, 0}, nil}
		spec := ParetoSpec{Objectives: []Objective{ObjPower, ObjLatency}, ArchiveCap: c, Power: power.DefaultModel()}
		spec.Power.WirePerBitUnit = w1
		check := func(lp lineProblem, want string) {
			var buf [keyBufSize]byte
			got := s.appendKey(buf[:0], &lp)
			if sha256.Sum256(got) != sha256.Sum256([]byte(want)) {
				t.Fatalf("%s key digest differs from the oracle's:\n got %q\nwant %q", lp.kind, got, want)
			}
		}
		for _, algo := range []Algorithm{DCSA, OnlySA, InitOnly} {
			check(lineProblem{kind: "row", c: c, algo: algo}, fmtRowKey(s, c, algo))
			check(lineProblem{kind: "line", c: c, algo: algo, w: w, line: salt}, fmtLineKey(s, c, algo, w, salt))
		}
		check(lineProblem{kind: "pareto", c: c, algo: ParetoSA, spec: &spec}, fmtParetoKey(s, c, spec))
	})
}

// TestStoreRowKeyAddressPinned pins one stored address outright: a
// default-config n=8 row solve at C=4 must keep the address every existing
// -cache-dir holds it under.
func TestStoreRowKeyAddressPinned(t *testing.T) {
	const want = "2f9e13cb4754b732083a9adddc11ce10e8150af090110a41477393e15fb47132"
	if got := keyAddress(NewSolver(model.DefaultConfig(8)).rowKey(4, DCSA)); got != want {
		t.Fatalf("row key address moved:\n got %s\nwant %s", got, want)
	}
}

// TestStoreKeyAddressAllocs bounds the allocations of deriving a row
// solve's store digest, which every store lookup pays: the preimage is built
// in a stack buffer and hashed in place, so it allocates nothing.
func TestStoreKeyAddressAllocs(t *testing.T) {
	s := NewSolver(model.DefaultConfig(16))
	lp := &lineProblem{kind: "row", c: 8, algo: DCSA}
	var sum digest
	allocs := testing.AllocsPerRun(200, func() {
		var buf [keyBufSize]byte
		sum = sha256.Sum256(s.appendKey(buf[:0], lp))
	})
	if hexAddress(sum) != keyAddress(s.rowKey(8, DCSA)) {
		t.Fatal("stack-built digest differs from the preimage's")
	}
	if allocs > 0 {
		t.Fatalf("row key digest allocates %.0f times, want 0", allocs)
	}
}
