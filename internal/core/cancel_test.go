package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"explink/internal/runctl"
)

// cancelOnPoll is a context that cancels itself on its n-th Err call. With
// one worker every Err call of a solve comes in a fixed order (the worker
// pool polls before each sub-problem, the annealer every 64 moves and the
// solve once after annealing), so a chosen poll lands mid-anneal.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelOnPoll(n int64) *cancelOnPoll {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelOnPoll{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelOnPoll) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestEntryPointsCancelMidAnneal cancels every core entry point while it
// anneals. Each must fail with runctl.ErrCancelled and a message naming the
// link limit and the evaluations done. With a store attached the cut-short
// solve may cache nothing, so a later call solves again.
func TestEntryPointsCancelMidAnneal(t *testing.T) {
	w, err := WeightsFromMatrix(8, skewedTraffic(8))
	if err != nil {
		t.Fatal(err)
	}
	row := func(algo Algorithm) func(context.Context, *Solver) error {
		return func(ctx context.Context, s *Solver) error {
			_, err := s.SolveRow(ctx, 4, algo)
			return err
		}
	}
	// polls picks the Err call that cancels. A search polls at moves 1 and
	// 65, so 2 is mid-anneal; a sweep polls once more before each C, and its
	// first limit, C=1, has no bits to anneal, so 5 is mid-anneal at C=2.
	// done counts the store entries of the sub-problems a sweep finished
	// first (C=1: one row, or a frontier's meta and single entry). unstarted
	// lists the sub-problems a pool cancels before they start, each named
	// with the caller's own label.
	cases := []struct {
		name      string
		polls     int64
		c         int
		done      int
		unstarted []string
		run       func(context.Context, *Solver) error
	}{
		{"SolveRow D&C_SA", 2, 4, 0, nil, row(DCSA)},
		{"SolveRow OnlySA", 2, 4, 0, nil, row(OnlySA)},
		{"SolveRow InitOnly", 1, 4, 0, nil, row(InitOnly)}, // no anneal: the solve's own check
		{"Optimize", 5, 2, 1, []string{"C=4", "C=8"}, func(ctx context.Context, s *Solver) error {
			_, _, err := s.Optimize(ctx, DCSA)
			return err
		}},
		{"SolveWeighted", 3, 4, 0, []string{"row 1", "row 7", "col 0", "col 7"}, func(ctx context.Context, s *Solver) error {
			_, err := s.SolveWeighted(ctx, 4, w, DCSA)
			return err
		}},
		{"SolvePareto one C", 2, 4, 0, nil, func(ctx context.Context, s *Solver) error {
			_, err := s.SolvePareto(ctx, 4, ParetoSpec{})
			return err
		}},
		{"SolvePareto sweep", 5, 2, 2, []string{"C=4", "C=8"}, func(ctx context.Context, s *Solver) error {
			_, err := s.SolvePareto(ctx, 0, ParetoSpec{})
			return err
		}},
		{"SolveRect", 2, 4, 0, nil, func(ctx context.Context, s *Solver) error {
			_, err := (&RectSolver{W: 8, H: 4, Base: s}).SolveRect(ctx, 4, DCSA)
			return err
		}},
	}
	evals := regexp.MustCompile(`interrupted after [1-9][0-9]* evals`)
	for _, tc := range cases {
		for _, withStore := range []bool{false, true} {
			name := fmt.Sprintf("%s (store %v)", tc.name, withStore)
			s := quickSolver(8)
			s.Workers = 1
			if withStore {
				s.Store, _ = NewPlacementStore("")
			}
			ctx := newCancelOnPoll(tc.polls)
			err := tc.run(ctx, s)
			if !errors.Is(err, runctl.ErrCancelled) {
				t.Errorf("%s: err = %v, want runctl.ErrCancelled", name, err)
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("C=%d ", tc.c)) || !evals.MatchString(msg) {
				t.Errorf("%s: message %q does not name C=%d and the evals done", name, msg, tc.c)
			}
			for _, label := range tc.unstarted {
				if want := "core: " + label + " not started"; !strings.Contains(msg, want) {
					t.Errorf("%s: message %q lacks %q", name, msg, want)
				}
			}
			if ctx.left.Load() > 0 {
				t.Errorf("%s: finished before its cancelling poll", name)
			}
			if !withStore {
				continue
			}
			if n := s.Store.Len(); n != tc.done {
				t.Errorf("%s: %d entries cached, want %d from finished sub-problems only", name, n, tc.done)
			}
			solves := s.Store.Counters().Solves
			if err := tc.run(context.Background(), s); err != nil {
				t.Errorf("%s: retry: %v", name, err)
			}
			if s.Store.Counters().Solves == solves {
				t.Errorf("%s: retry solved nothing", name)
			}
		}
	}
}
