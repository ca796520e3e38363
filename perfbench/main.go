// Command perfbench is explink's benchmark. It drives the placement daemon's
// HTTP handler in-process (serve.New(cfg).Handler().ServeHTTP with a recorded
// response, no sockets) from one closed-loop client, replays a fixed op list
// for a fixed number of passes after an untimed warm-up, checks every
// response, and prints the end-to-end metrics. With -trace 1 it instead makes
// the traced run: the same ops re-issued through each layer's public
// functions, reporting per-layer metrics. README.md explains the workloads
// and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"explink/internal/obs"
	"explink/internal/serve"
)

// workload is one fixed-work traffic mix.
type workload struct {
	name string
	list string // op list and fixture name: "solve" or "sim"
	ops  func(seed uint64) []op
	// fill: setup sends one cold pass first, so the timed passes are store
	// hits. fresh: every pass gets a fresh memory-only store, so every
	// request misses.
	fill, fresh bool
	// passSec is the wall time of one pass on the reference host (2-vCPU
	// Intel Xeon, Go 1.24). It turns --seconds into a fixed pass count, so
	// every run at the same --seconds does the same work.
	passSec float64
	// tail is the percentile reported as latency_tail_ms: the highest one on
	// tailLadder with at least minBeyond samples beyond it at this
	// workload's op count for the benchmark's run_seconds.
	tail float64
}

var workloads = []workload{
	{name: "solve-cold", list: "solve", ops: solveOps, fresh: true, passSec: 1.0, tail: 99},
	{name: "solve-warm", list: "solve", ops: solveOps, fill: true, passSec: 0.0026, tail: 99.9},
	{name: "sim", list: "sim", ops: simOps, passSec: 1.55, tail: 97.5},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// passes is the fixed number of timed passes for a run of the given length.
func (w workload) passes(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.passSec)))
}

// warmupPasses is the untimed warm-up: about half a second of the mix.
func (w workload) warmupPasses() int {
	return max(1, int(math.Round(0.5/w.passSec)))
}

// chunkOps is how many timed ops run between two reference-kernel timings:
// about chunkSec of the mix, whose passes have n ops.
func (w workload) chunkOps(n int) int {
	return max(1, int(math.Round(chunkSec/w.passSec*float64(n))))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// setup builds the server and sends the untimed fill and warm-up passes. It
// returns the server and how many placement solves the setup ran.
func (w workload) setup(c *client) (*serve.Server, int64) {
	srv := newServer(nil, nil)
	var solves int64
	if w.fill {
		c.pass(srv.Handler(), nil)
	}
	for k := 0; k < w.warmupPasses(); k++ {
		if w.fresh {
			solves += srv.Store().Counters().Solves
			srv = newServer(nil, nil)
		}
		c.pass(srv.Handler(), nil)
	}
	return srv, solves + srv.Store().Counters().Solves
}

// timedServer returns the server for the next timed pass: a fresh one for a
// cold workload, else srv.
func (w workload) timedServer(srv *serve.Server, reg *obs.Registry) *serve.Server {
	if w.fresh {
		return newServer(nil, reg)
	}
	return srv
}

// metric is one reported value. base says what it was computed from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	base  string
}

// report is the run's final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newReport(tl *tally) *report {
	if tl.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", tl.firstErr)
	}
	return &report{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed}
}

func (r *report) add(name string, value float64, unit, base string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, base: base}
	r.order = append(r.order, name)
}

// print writes one human-readable line per metric, then the JSON line last.
func (r *report) print() error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("metric %-24s %14.6g %-6s  %s\n", name, m.Value, m.Unit, m.base)
	}
	fmt.Printf("ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runTimed makes one untraced run: setupReps setups, then the timed passes.
// Every time it reports is scaled to the reference host's speed (calib.go).
func runTimed(w workload, seed uint64, seconds int) (*report, error) {
	ops := w.ops(seed)
	fixture, err := fixtureFor(w, seed)
	if err != nil {
		return nil, err
	}
	var tl tally
	c := newClient(ops, fixture, &tl)
	cal := newCalibrator()
	passes := w.passes(seconds)
	// Preallocated, so recording a sample never allocates; both heap readings
	// hold the samples, so they never count as program memory.
	lat := make([]time.Duration, passes*len(ops))

	var setups [setupReps]time.Duration
	var srv *serve.Server
	cal.measure()
	for r := range setups {
		start := time.Now()
		srv, _ = w.setup(c)
		setups[r] = time.Since(start)
		cal.measure()
	}

	// The kernel runs after every chunk of ops, which may end inside a pass
	// or span several; the responses are checked after each pass.
	var wall time.Duration
	every, sent := w.chunkOps(len(ops)), 0
	for p := 0; p < passes; p++ {
		srv = w.timedServer(srv, nil)
		h := srv.Handler()
		for lo := 0; lo < len(ops); {
			hi := min(len(ops), lo+every-sent%every)
			wall += c.send(h, lo, hi, lat[p*len(ops):(p+1)*len(ops)])
			sent += hi - lo
			lo = hi
			if sent%every == 0 {
				cal.measure()
			}
		}
		c.verify()
	}
	if sent%every != 0 {
		cal.measure()
	}
	heap, base := serverHeap(srv)
	// The client's buffers and the kernel's times are in both readings, so
	// they cancel.
	runtime.KeepAlive(c)
	runtime.KeepAlive(cal)

	printClassMedians(ops, lat)
	n := len(lat)
	slices.Sort(lat)
	beyond := n - nearestRank(w.tail, n)
	f := cal.slowdown()
	fmt.Printf("host slowdown %.4f (mean of %d kernel calls, %v..%v, nominal %v); unscaled: ops/s %.6g, p50 %.6g ms, tail %.6g ms, setup %.6g s\n",
		f, len(cal.times), slices.Min(cal.times), slices.Max(cal.times), refNominal,
		float64(n)/wall.Seconds(), ms(percentile(lat, 50)), ms(percentile(lat, w.tail)), median(setups[:]).Seconds())
	rep := newReport(&tl)
	rep.add("setup_s", scaled(median(setups[:]), f).Seconds(), "s",
		fmt.Sprintf("median of %d setups (server + %d fill + %d warm-up passes), at reference speed", setupReps, b2i(w.fill), w.warmupPasses()))
	rep.add("ops_per_s", float64(n)/scaled(wall, f).Seconds(), "1/s",
		fmt.Sprintf("%d ops (%d passes x %d) in %.3f s of timed passes at reference speed", n, passes, len(ops), scaled(wall, f).Seconds()))
	rep.add("latency_p50_ms", ms(scaled(percentile(lat, 50), f)), "ms", fmt.Sprintf("p50 of %d samples at reference speed", n))
	rep.add("latency_tail_ms", ms(scaled(percentile(lat, w.tail), f)), "ms",
		fmt.Sprintf("p%g of %d samples, %d beyond, at reference speed", w.tail, n, beyond))
	rep.add("heap_live_mb", float64(int64(heap)-int64(base))/1e6, "MB",
		fmt.Sprintf("live heap after GC with the server %d B, without it %d B", heap, base))
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median is the lower median of v, 0 when v is empty.
func median(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// printClassMedians prints each request class's median latency, the
// evidence that the mix puts p50 and the tail in the intended classes.
func printClassMedians(ops []op, lat []time.Duration) {
	by := make(map[string][]time.Duration)
	var names []string
	for k, d := range lat {
		cl := ops[k%len(ops)].class
		if by[cl] == nil {
			names = append(names, cl)
		}
		by[cl] = append(by[cl], d)
	}
	for _, cl := range names {
		s := by[cl]
		slices.Sort(s)
		fmt.Printf("class %-28s p50 %10.4f ms  max %10.4f ms  (%d samples)\n", cl, ms(percentile(s, 50)), ms(s[len(s)-1]), len(s))
	}
}

func fixtureFor(w workload, seed uint64) ([]string, error) {
	if seed != fixtureSeed {
		return nil, nil
	}
	return loadFixture(w.list)
}

// recordFixtures sends one pass of each op list at fixtureSeed, checks it,
// and writes the response digests under dir.
func recordFixtures(dir string) error {
	for _, list := range []struct {
		name string
		ops  func(uint64) []op
	}{{"solve", solveOps}, {"sim", simOps}} {
		ops := list.ops(fixtureSeed)
		var tl tally
		c := newClient(ops, nil, &tl)
		c.pass(newServer(nil, nil).Handler(), nil)
		if tl.failed > 0 {
			return fmt.Errorf("recording %s: %w", list.name, tl.firstErr)
		}
		if err := writeFixture(dir, list.name, ops, c.ver.canon); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: solve-cold, solve-warm or sim")
	seed := flag.Uint64("seed", fixtureSeed, "workload seed; request seeds derive from it")
	seconds := flag.Int("seconds", 20, "run length; sets the fixed number of timed passes")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	spans := flag.String("spans", "", "span file of the traced run (default .bench_build/spans-<workload>.jsonl)")
	record := flag.String("record-fixtures", "", "write the response digests at the fixture seed to this directory and exit")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *spans, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, spans, record string) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if record != "" {
		return recordFixtures(record)
	}
	w, err := lookup(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	printEnv(w, seed, seconds, trace)
	var rep *report
	switch trace {
	case 0:
		rep, err = runTimed(w, seed, seconds)
	case 1:
		if spans == "" {
			spans = ".bench_build/spans-" + w.name + ".jsonl"
		}
		rep, err = runTraced(w, seed, seconds, spans)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	return rep.print()
}
