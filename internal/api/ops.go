package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"explink/internal/core"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/stats"
)

// Op is one entry of the service op table: a wire name and the single path
// that turns a request body into an encoded answer. The daemon's transports
// (HTTP at /v1/<Name>, the stdio "op" field) only frame what Run returns.
type Op struct {
	// Name is the op's wire name.
	Name string
	// Streams reports that the op reads Env.Progress: over HTTP it answers
	// with a progress stream instead of one document.
	Streams bool
	// newReq returns a zero request of the op's type; run executes a
	// decoded, normalized and validated one.
	newReq func() request
	run    func(ctx context.Context, env Env, req request) (Reply, error)
}

// request is what every op's request type provides.
type request interface {
	Normalize()
	Validate() error
}

// Env is what an op runs against.
type Env struct {
	// Store is the shared placement store; nil solves without caching.
	Store *core.PlacementStore
	// Progress, when non-nil, is called once a long-running request has
	// validated and returns the sink for its progress events. The op then
	// writes its outcome into that stream as a terminal line and returns an
	// empty Reply. HTTP sets it for streaming ops (Op.Streams); stdio leaves
	// it nil.
	Progress func() *obs.EventWriter
}

// Reply is an op's encoded answer: the indented JSON document (with a
// trailing newline) that HTTP sends as its body and stdio compacts into its
// result field, plus the paths the stats sanitizer nulled. A nil Body with
// an error is a plain failure; a Body with an error is a partial result (a
// sim cut short carries what it measured).
type Reply struct {
	Body  []byte
	Notes []string
	// pooled is the replyBufs entry Body was encoded into, or nil.
	pooled *[]byte
}

// Release hands a pooled Body back for a later reply to reuse. The
// transport that writes the reply calls it once, after the write; Body and
// anything aliasing it must not be read afterwards. A reply whose Body is
// not pooled is left alone.
func (r Reply) Release() {
	if r.pooled == nil || cap(r.Body) > maxPooledReply {
		return
	}
	*r.pooled = r.Body[:0]
	replyBufs.Put(r.pooled)
}

// replyBufs recycles solve reply buffers: the warm solve answers from the
// store in microseconds, and a fresh buffer of up to a few KB per reply
// made garbage collection a large share of that time. Buffers that grew past
// maxPooledReply (a full sweep of a large network) go to the collector
// instead of pinning their size in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// Ops is the service op table: the paper's flow as daemon operations.
var Ops = []Op{
	newOp("solve", func(ctx context.Context, env Env, r *SolveRequest) (Reply, error) {
		best, all, err := r.solve(ctx, env.Store)
		if err != nil {
			return Reply{}, err
		}
		resp := NewSolveResponse(best, all)
		if all == nil { // one C: the sweep list is the best solution alone
			resp.All = []Solution{resp.Best}
		}
		// The direct appender, not the sanitizer: these bytes must equal
		// `explink -json`.
		buf := replyBufs.Get().(*[]byte)
		body, err := resp.appendJSON(slices.Grow((*buf)[:0], resp.jsonSize()))
		if err != nil {
			replyBufs.Put(buf)
			return Reply{}, err
		}
		return Reply{Body: body, pooled: buf}, nil
	}),
	newOp("eval", func(_ context.Context, _ Env, r *EvalRequest) (Reply, error) {
		resp, err := r.Eval()
		if err != nil {
			return Reply{}, err
		}
		return encoded(resp.Encode)
	}),
	newOp("sim", func(ctx context.Context, env Env, r *SimRequest) (Reply, error) {
		resp, err := r.Run(ctx, env.Store)
		if err != nil && !resp.Partial() {
			return Reply{}, err
		}
		// A run cut short (drain, deadline, deadlock) still reports what it
		// measured, with the classified error embedded.
		resp.Error = ErrorBodyOf(err)
		rep, merr := sanitized(resp)
		if merr != nil {
			return Reply{}, merr
		}
		return rep, err
	}),
	streaming(newOp("exp", func(ctx context.Context, env Env, r *ExpRequest) (Reply, error) {
		var ev *obs.EventWriter
		if env.Progress != nil {
			ev = env.Progress()
		}
		res, err := r.Run(ctx, env.Store, ev)
		if err != nil {
			return Reply{}, err
		}
		rep, err := sanitized(res)
		if ev == nil {
			return rep, err
		}
		// The stream is committed, so a drain mid-suite shows up as
		// cancelled outcomes inside the terminal line, not as an error.
		// Emit compacts the RawMessage.
		if err != nil {
			ev.Emit("suite.result", map[string]any{"error": err.Error()})
		} else {
			ev.Emit("suite.result", map[string]any{"failed": res.Failed, "result": json.RawMessage(rep.Body)})
		}
		return Reply{}, err
	})),
	newOp("pareto", func(ctx context.Context, env Env, r *ParetoRequest) (Reply, error) {
		f, err := r.Solve(ctx, env.Store)
		if err != nil {
			return Reply{}, err
		}
		// Encode, not the sanitizer: these bytes must equal
		// `explink -pareto -json`.
		return encoded(NewParetoResponse(f).Encode)
	}),
}

// newOp builds a table entry whose run receives the op's own request type.
func newOp[R any, P interface {
	*R
	request
}](name string, run func(context.Context, Env, P) (Reply, error)) Op {
	return Op{
		Name:   name,
		newReq: func() request { return P(new(R)) },
		run: func(ctx context.Context, env Env, req request) (Reply, error) {
			return run(ctx, env, req.(P))
		},
	}
}

// streaming marks op as one that reads Env.Progress.
func streaming(op Op) Op {
	op.Streams = true
	return op
}

// Lookup finds an op by wire name.
func Lookup(name string) (Op, bool) {
	for _, op := range Ops {
		if op.Name == name {
			return op, true
		}
	}
	return Op{}, false
}

// Run is the op's one path: strictly decode body, Normalize, Validate, run
// against env and encode. Every rejection before the run is
// runctl.ErrConfig-typed.
func (o Op) Run(ctx context.Context, env Env, body io.Reader) (Reply, error) {
	req := o.newReq()
	var err error
	if r, ok := req.(*SolveRequest); ok {
		err = r.decodeBody(body) // Decode's result by a faster path
	} else {
		err = Decode(body, req)
	}
	if err != nil {
		return Reply{}, err
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return Reply{}, err
	}
	return o.run(ctx, env, req)
}

// Decode strictly decodes the one JSON value in body into v. Malformed
// JSON, unknown fields (almost always typos in a versioned schema) and
// anything but whitespace after the value are runctl.ErrConfig errors.
func Decode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		return fmt.Errorf("bad request body: %v: %w", err, runctl.ErrConfig)
	}
	return nil
}

// encoded runs a response encoder into a Reply.
func encoded(encode func(io.Writer) error) (Reply, error) {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return Reply{}, err
	}
	return Reply{Body: buf.Bytes()}, nil
}

// sanitized encodes v as indented JSON through the stats sanitizer, so a
// non-finite float degrades to null (its path noted) instead of failing.
func sanitized(v any) (Reply, error) {
	buf, notes, err := stats.MarshalIndentSanitized(v, "", "  ")
	if err != nil {
		return Reply{}, err
	}
	return Reply{Body: append(buf, '\n'), Notes: notes}, nil
}
