package api

import (
	"context"
	"strings"

	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
)

// SelectExperiments resolves a name list against the experiment registry,
// preserving registry order, deduplicating, and rejecting unknown names with
// a runctl.ErrConfig-typed error. An empty (or nil) list selects every
// registered experiment. It is the one selection path shared by the expbench
// -exp flag and the daemon's /v1/exp endpoint.
func SelectExperiments(names []string) ([]exp.Experiment, error) {
	if len(names) == 0 {
		return exp.All(), nil
	}
	want := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if strings.EqualFold(name, "all") {
			return exp.All(), nil
		}
		if _, ok := exp.Lookup(name); !ok {
			return nil, configErr("unknown experiment %q", name)
		}
		want[strings.ToLower(name)] = true
	}
	if len(want) == 0 {
		return nil, configErr("no experiments selected")
	}
	var sel []exp.Experiment
	for _, e := range exp.All() {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// Run executes the (normalized, validated) request over the selected
// experiments against store, streaming progress to ev (nil for none). A
// drained suite reports cancelled outcomes, not an error.
func (r *ExpRequest) Run(ctx context.Context, store *core.PlacementStore, ev *obs.EventWriter) (ExpResult, error) {
	sel, err := SelectExperiments(r.Experiments)
	if err != nil {
		return ExpResult{}, err
	}
	opts := exp.DefaultOptions()
	opts.Quick = r.Quick
	opts.Seed = r.Seed
	opts.Replicas = r.Replicas
	opts.Store = store
	results := exp.RunAll(ctx, sel, opts, r.Parallel, ev)
	out := ExpResult{Experiments: len(results)}
	for _, oc := range results {
		eo := ExpOutcome{Name: oc.Exp.Name, Section: oc.Exp.Section, Seconds: oc.Elapsed.Seconds()}
		if oc.Err != nil {
			out.Failed++
			eo.Error = ErrorBodyOf(oc.Err)
		} else {
			eo.Report = oc.Rep
		}
		out.Outcomes = append(out.Outcomes, eo)
	}
	return out, nil
}
