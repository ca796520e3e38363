package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"explink/internal/anneal"
	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/dnc"
	"explink/internal/obs"
	"explink/internal/sim"
)

// span is one timed call of the traced run. Spans of one op share Op and
// hang off a root span; a layer's self time is its span minus its children.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int32  `json:"op"`     // index of the op in its list
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32, op int) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// annealCounts is a reading of the annealer's obs series.
type annealCounts struct {
	searches, moves, hits, misses, accepted int64
	search                                  time.Duration
}

func readAnneal(reg *obs.Registry) annealCounts {
	// Registry constructors are idempotent: these return the instruments
	// anneal.EnableMetrics registered.
	return annealCounts{
		searches: reg.Counter("anneal_searches_total", "").Value(),
		moves:    reg.Counter("anneal_moves_total", "").Value(),
		hits:     reg.Counter("anneal_memo_hits_total", "").Value(),
		misses:   reg.Counter("anneal_memo_misses_total", "").Value(),
		accepted: reg.Counter("anneal_accepted_total", "").Value(),
		search:   reg.Timer("anneal_search", "").Total(),
	}
}

func (a annealCounts) sub(b annealCounts) annealCounts {
	return annealCounts{a.searches - b.searches, a.moves - b.moves, a.hits - b.hits,
		a.misses - b.misses, a.accepted - b.accepted, a.search - b.search}
}

func simCycles(reg *obs.Registry) int64 {
	var n int64
	for _, phase := range []string{"warmup", "measure", "drain"} {
		n += reg.Counter("sim_cycles_total", "", obs.L("phase", phase)).Value()
	}
	return n
}

// runTraced makes the traced run: an untraced phase and a traced phase of
// the workload's own passes (allocation counts and tracing overhead), then
// the layer passes, which re-issue the solve and sim op lists through each
// layer's public functions. The layer passes do not depend on the workload,
// so every traced run reports every per-layer metric.
func runTraced(w workload, seed uint64, seconds int, spansPath string) (*report, error) {
	ops := w.ops(seed)
	fixture, err := fixtureFor(w, seed)
	if err != nil {
		return nil, err
	}
	var tl tally
	c := newClient(ops, fixture, &tl)
	srv, setupSolves := w.setup(c)
	passes := max(1, w.passes(seconds)/4)
	n := passes * len(ops)

	// Untraced phase: the timed passes exactly as a timed run makes them.
	var before, after runtime.MemStats
	var hits, solves int64
	var wall time.Duration
	runtime.ReadMemStats(&before)
	for p := 0; p < passes; p++ {
		srv = w.timedServer(srv, nil)
		st := srv.Store().Counters()
		wall += c.pass(srv.Handler(), nil)
		end := srv.Store().Counters()
		hits += end.Hits - st.Hits
		solves += end.Solves - st.Solves
	}
	runtime.ReadMemStats(&after)
	untraced := float64(n) / wall.Seconds()

	// Traced phase: the program's own instruments on, one span per op.
	reg := obs.NewRegistry()
	anneal.EnableMetrics(reg)
	core.EnableMetrics(reg)
	sim.EnableMetrics(reg)
	defer func() {
		anneal.EnableMetrics(nil)
		core.EnableMetrics(nil)
		sim.EnableMetrics(nil)
	}()
	tr := &tracer{epoch: time.Now()}
	if !w.fresh {
		srv = newServer(srv.Store(), reg)
	}
	wall = 0
	for p := 0; p < passes; p++ {
		srv = w.timedServer(srv, reg)
		h := srv.Handler()
		start := time.Now()
		for i := range ops {
			id := tr.begin("serve.http", -1, i)
			c.do(h, i)
			tr.end(id)
		}
		wall += time.Since(start)
		c.verify()
	}
	traced := float64(n) / wall.Seconds()
	if got := reg.Counter("serve_requests_total", "", obs.L("op", w.list)).Value(); got != int64(n) {
		tl.record(fmt.Errorf("serve_requests_total{op=%q} counted %d requests, sent %d", w.list, got, n))
	}

	rep := &report{}
	rep.add("alloc.objects_per_op", float64(after.Mallocs-before.Mallocs)/float64(n), "count",
		fmt.Sprintf("%d mallocs over %d untraced %s ops, client and checks included", after.Mallocs-before.Mallocs, n, w.name))
	rep.add("alloc.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B",
		fmt.Sprintf("%d bytes over %d untraced %s ops", after.TotalAlloc-before.TotalAlloc, n, w.name))
	rep.add("core.store_hit_ratio", ratio(hits, hits+solves), "ratio",
		fmt.Sprintf("%d hits / (%d hits + %d solves) over the untraced %s passes", hits, hits, solves, w.name))
	rep.add("core.store_solves", float64(setupSolves), "count", fmt.Sprintf("placement solves during %s setup", w.name))
	rep.add("trace.overhead_pct", (untraced/traced-1)*100, "%",
		fmt.Sprintf("%s ops/s untraced %.6g vs traced %.6g, %d ops each", w.name, untraced, traced, n))

	tr.layerSolve(solveOps(seed), reg, &tl, rep)
	tr.layerSim(simOps(seed), reg, &tl, rep)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)

	out := newReport(&tl)
	out.Metrics, out.order = rep.Metrics, rep.order
	return out, nil
}

// warmReps is how often the warm layer pass repeats the solve list; a warm
// op takes tens of microseconds, so one pass gives too few samples.
const warmReps = 50

// layerSolve re-issues the solve list through the solve path's layers: cold
// (core, dnc, model) with no store, then warm (serve, api, store) against a
// store filled through the handler.
func (t *tracer) layerSolve(ops []op, reg *obs.Registry, tl *tally, rep *report) {
	ctx := context.Background()
	c := newClient(ops, nil, tl)
	srv := newServer(nil, nil)
	c.pass(srv.Handler(), nil) // fills the store for the warm layer below

	var solveD, dncD, evalD []time.Duration
	var dncEvals int64
	a0 := readAnneal(reg)
	for i := range ops {
		req := ops[i].solve
		root := t.begin("op.cold", -1, i)
		s, err := req.Solver(nil)
		if err != nil {
			tl.record(err)
			t.end(root)
			continue
		}
		id := t.begin("core.solve", root, i)
		sol, err := s.SolveRow(ctx, req.C, core.Algorithm(req.Algo))
		solveD = append(solveD, t.end(id))
		if err != nil {
			tl.record(err)
			t.end(root)
			continue
		}
		if core.Algorithm(req.Algo) == core.DCSA {
			id = t.begin("dnc.initial", root, i)
			init := dnc.Initial(req.N, req.C, s.Cfg.Params)
			dncD = append(dncD, t.end(id))
			dncEvals += init.Evals
		}
		id = t.begin("model.eval_row", root, i)
		ev, err := s.Cfg.EvalRow(sol.Row, sol.C)
		evalD = append(evalD, t.end(id))
		if err == nil && ev != sol.Eval {
			err = fmt.Errorf("op %d (%s): EvalRow %v differs from the solve's %v", i, ops[i].class, ev, sol.Eval)
		}
		tl.record(err)
		t.end(root)
	}
	a := readAnneal(reg).sub(a0)

	var httpD, decD, hitD, encD, selfD []time.Duration
	var buf bytes.Buffer
	h, store := srv.Handler(), srv.Store()
	st0 := store.Counters()
	for r := 0; r < warmReps; r++ {
		for i := range ops {
			root := t.begin("op.warm", -1, i)
			id := t.begin("serve.http", root, i)
			c.do(h, i)
			dHTTP := t.end(id)

			id = t.begin("api.decode", root, i)
			var req api.SolveRequest
			err := strictDecode(ops[i].body, &req)
			if err == nil {
				req.Normalize()
				err = req.Validate()
			}
			dDec := t.end(id)

			id = t.begin("core.store_hit", root, i)
			var best core.RowSolution
			var all []core.RowSolution
			if err == nil {
				best, all, err = req.Solve(ctx, store)
			}
			dHit := t.end(id)

			buf.Reset()
			id = t.begin("api.encode", root, i)
			if err == nil {
				err = api.NewSolveResponse(best, all).Encode(&buf)
			}
			dEnc := t.end(id)
			t.end(root)

			if err == nil && !bytes.Equal(buf.Bytes(), c.recs[i].buf.Bytes()) {
				err = fmt.Errorf("op %d (%s): layer re-issue differs from the handler's response", i, ops[i].class)
			}
			tl.record(err)
			httpD, decD, hitD, encD = append(httpD, dHTTP), append(decD, dDec), append(hitD, dHit), append(encD, dEnc)
			selfD = append(selfD, dHTTP-dDec-dHit-dEnc)
		}
		c.verify()
	}
	if st := store.Counters(); st.Solves != st0.Solves {
		tl.record(fmt.Errorf("warm layer pass ran %d solves, want 0", st.Solves-st0.Solves))
	}

	warm := fmt.Sprintf("%d warm solve ops", len(httpD))
	rep.add("serve.self_us", us(median(selfD)), "us", "median ServeHTTP minus decode, store hit and encode re-measured, over "+warm)
	rep.add("api.decode_us", us(median(decD)), "us", "median strict decode + Normalize + Validate over "+warm)
	rep.add("api.encode_us", us(median(encD)), "us", "median NewSolveResponse(..).Encode over "+warm)
	rep.add("core.store_hit_us", us(median(hitD)), "us", "median SolveRequest.Solve against the warm store over "+warm)
	cold := fmt.Sprintf("%d cold solve ops", len(solveD))
	rep.add("core.solve_ms", ms(median(solveD)), "ms", "median Solver.SolveRow with Store=nil over "+cold)
	rep.add("dnc.initial_ms", ms(median(dncD)), "ms", fmt.Sprintf("median dnc.Initial over the %d D&C_SA ops", len(dncD)))
	rep.add("dnc.evals", float64(dncEvals), "count", fmt.Sprintf("placement evaluations of %d dnc.Initial calls", len(dncD)))
	rep.add("anneal.search_ms", ms(a.search)/float64(max(a.searches, 1)), "ms",
		fmt.Sprintf("anneal_search seconds / %d searches over %s", a.searches, cold))
	rep.add("anneal.moves", float64(a.moves), "count", "anneal_moves_total over "+cold)
	rep.add("anneal.memo_misses", float64(a.misses), "count", "anneal_memo_misses_total over "+cold)
	rep.add("anneal.memo_hit_ratio", ratio(a.hits, a.hits+a.misses), "ratio",
		fmt.Sprintf("%d memo hits / %d objective queries", a.hits, a.hits+a.misses))
	rep.add("anneal.accept_ratio", ratio(a.accepted, a.moves), "ratio", fmt.Sprintf("%d accepted / %d moves", a.accepted, a.moves))
	rep.add("anneal.ns_per_miss", float64(a.search.Nanoseconds())/float64(max(a.misses, 1)), "ns",
		fmt.Sprintf("%v search time / %d memo misses: one route.Incremental delta evaluation", a.search, a.misses))
	rep.add("model.eval_row_us", us(median(evalD)), "us", "median Config.EvalRow on the returned row over "+cold)
}

// layerSim re-issues the sim list through api (config build) and sim
// (construction, run, batch) against a store filled with its placements.
func (t *tracer) layerSim(ops []op, reg *obs.Registry, tl *tally, rep *report) {
	ctx := context.Background()
	store, _ := core.NewPlacementStore("") // "" never fails
	for i := range ops {
		if _, err := ops[i].sim.Config(ctx, store); err != nil {
			tl.record(err)
		}
	}

	var cfgD, newD, runD, batchD []time.Duration
	var runTime, low, sat time.Duration
	var hops, lowCycles, satCycles int64
	c0 := simCycles(reg)
	for i := range ops {
		req := ops[i].sim
		root := t.begin("op.sim", -1, i)
		id := t.begin("api.sim_config", root, i)
		cfg, err := req.Config(ctx, store)
		cfgD = append(cfgD, t.end(id))
		if err != nil {
			tl.record(err)
			t.end(root)
			continue
		}
		if req.Replicas > 1 {
			id = t.begin("sim.batch", root, i)
			var results []sim.Result
			b, err := sim.NewBatch(cfg, sim.ReplicaSeeds(cfg.Seed, req.Replicas))
			if err == nil {
				results, _, err = b.Run(ctx, 0)
			}
			batchD = append(batchD, t.end(id))
			for _, r := range results {
				if err == nil {
					err = checkRun(r)
				}
			}
			tl.record(err)
			t.end(root)
			continue
		}
		id = t.begin("sim.new", root, i)
		sm, err := sim.New(cfg)
		newD = append(newD, t.end(id))
		if err != nil {
			tl.record(err)
			t.end(root)
			continue
		}
		id = t.begin("sim.run", root, i)
		res, err := sm.Run(ctx)
		d := t.end(id)
		t.end(root)
		if err == nil {
			err = checkRun(res)
		}
		tl.record(err)
		runD = append(runD, d)
		runTime += d
		hops += res.Counts.SwitchTraversals
		switch ops[i].load {
		case "low":
			low, lowCycles = low+d, lowCycles+res.Cycles
		case "sat":
			sat, satCycles = sat+d, satCycles+res.Cycles
		}
	}
	cycles := simCycles(reg) - c0

	rep.add("api.sim_config_ms", ms(median(cfgD)), "ms", fmt.Sprintf("median SimRequest.Config over %d sim ops, placements stored", len(cfgD)))
	rep.add("sim.new_ms", ms(median(newD)), "ms", fmt.Sprintf("median sim.New over %d single-run ops", len(newD)))
	rep.add("sim.run_ms", ms(median(runD)), "ms", fmt.Sprintf("median Simulator.Run over %d single-run ops", len(runD)))
	rep.add("sim.cycles", float64(cycles), "count", fmt.Sprintf("sim_cycles_total over %d sim ops", len(cfgD)))
	rep.add("sim.ns_per_flit_hop", float64(runTime.Nanoseconds())/float64(max(hops, 1)), "ns",
		fmt.Sprintf("%v run time / %d switch traversals", runTime, hops))
	rep.add("sim.ns_per_cycle.low", float64(low.Nanoseconds())/float64(max(lowCycles, 1)), "ns",
		fmt.Sprintf("%v / %d cycles of low-load single runs", low, lowCycles))
	rep.add("sim.ns_per_cycle.sat", float64(sat.Nanoseconds())/float64(max(satCycles, 1)), "ns",
		fmt.Sprintf("%v / %d cycles of saturated single runs", sat, satCycles))
	rep.add("sim.batch_ms", ms(median(batchD)), "ms", fmt.Sprintf("median NewBatch + Batch.Run over %d replica ops", len(batchD)))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
