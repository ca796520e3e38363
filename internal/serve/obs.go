package serve

import (
	"time"

	"explink/internal/api"
	"explink/internal/obs"
)

// metrics holds the server's exported instruments. All of them are nil-safe
// no-ops when the server was built without a registry.
type metrics struct {
	requests map[string]*obs.Counter // serve_requests_total{op}
	failures map[string]*obs.Counter // serve_failures_total{op}
	rejected map[string]*obs.Counter // serve_rejected_total{reason}
	timers   map[string]*obs.Timer   // serve_request_total/_seconds_total{op}
}

// newMetrics pre-registers every (series, label) pair, which keeps the hot
// path free of registry lookups: a request label per op in the table (its
// HTTP label) plus "stdio" and "work", and a rejection reason per admission
// error plus "cancelled" (a client gone while queued).
func newMetrics(reg *obs.Registry, g *gate) *metrics {
	m := &metrics{
		requests: map[string]*obs.Counter{},
		failures: map[string]*obs.Counter{},
		rejected: map[string]*obs.Counter{},
		timers:   map[string]*obs.Timer{},
	}
	labels, reasons := []string{"stdio", "work"}, []string{"cancelled"}
	for _, op := range api.Ops {
		labels = append(labels, op.Name)
	}
	for _, a := range admissionErrors {
		reasons = append(reasons, a.kind)
	}
	for _, op := range labels {
		m.requests[op] = reg.Counter("serve_requests_total", "requests received", obs.L("op", op))
		m.failures[op] = reg.Counter("serve_failures_total", "requests that returned an error", obs.L("op", op))
		m.timers[op] = reg.Timer("serve_request", "request wall time", obs.L("op", op))
	}
	for _, reason := range reasons {
		m.rejected[reason] = reg.Counter("serve_rejected_total", "requests rejected at admission", obs.L("reason", reason))
	}
	reg.Func("serve_inflight", "requests currently holding a gate slot", func() float64 { return float64(g.inflight()) })
	reg.Func("serve_queued", "requests waiting for a gate slot", func() float64 { return float64(g.queued()) })
	reg.Func("serve_draining", "1 while the server is draining", func() float64 {
		if g.draining() {
			return 1
		}
		return 0
	})
	return m
}

func (m *metrics) request(op string) { m.requests[op].Inc() }
func (m *metrics) failure(op string) { m.failures[op].Inc() }

func (m *metrics) reject(reason string) { m.rejected[reason].Inc() }

func (m *metrics) observe(op string, d time.Duration) { m.timers[op].Observe(d) }
