package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"explink/internal/api"
	"explink/internal/runctl"
)

// The stdio transport speaks newline-delimited JSON, the protocol shape an
// external timing engine (BookSim-style main-engine + service split) drives:
// one request object per line in, one response object per line out, matched
// by the client-chosen id. Requests dispatch concurrently through the same
// admission gate as HTTP, so response order is not request order — clients
// correlate by id.
//
//	→ {"id":1,"op":"solve","req":{"n":8,"c":5}}
//	← {"id":1,"ok":true,"result":{"best":{...},"all":[...]}}
//	→ {"id":2,"op":"eval","req":{"n":8,"c":3,"express":[...]}}
//	← {"id":2,"ok":false,"error":{"kind":"config","message":"..."}}
//
// Ops: every entry of the api.Ops table (the req payload is the op's HTTP
// body, and the result its compacted HTTP answer), ping (liveness + drain
// status, never gated) and shutdown (stop reading, finish in-flight work,
// exit the loop).

// stdioRequest is one inbound line.
type stdioRequest struct {
	// ID is echoed verbatim on the response; any JSON value works.
	ID json.RawMessage `json:"id,omitempty"`
	// Op selects the operation: an api.Ops name, ping or shutdown.
	Op string `json:"op"`
	// Req is the op's request payload (same schema as the HTTP body).
	Req json.RawMessage `json:"req,omitempty"`
}

// stdioResponse is one outbound line. A truncated run (drain, deadlock) can
// carry both a partial Result and the classifying Error; OK reports whether
// the op completed cleanly.
type stdioResponse struct {
	ID     json.RawMessage `json:"id,omitempty"`
	OK     bool            `json:"ok"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *api.ErrorBody  `json:"error,omitempty"`
}

// stdioMaxLine bounds one request line (an /v1/eval traffic matrix is the
// largest legitimate payload).
const stdioMaxLine = maxBodyBytes

// ServeStdio runs the JSON-lines protocol over r/w until EOF, a shutdown op,
// ctx cancellation or BeginDrain, whichever comes first; it waits for
// in-flight ops before returning. Responses are written whole-line under a
// mutex, so concurrent ops never interleave bytes.
func (s *Server) ServeStdio(ctx context.Context, r io.Reader, w io.Writer) error {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	write := func(resp stdioResponse) {
		buf, err := json.Marshal(resp)
		if err != nil {
			// The id was parsed from JSON and results come from the op
			// encoders, so this is unreachable. Degrade to a bare error line.
			buf, _ = json.Marshal(stdioResponse{ID: resp.ID, Error: &api.ErrorBody{Kind: "internal", Message: err.Error()}})
		}
		wmu.Lock()
		defer wmu.Unlock()
		w.Write(append(buf, '\n'))
	}

	// The blocking line reader runs in its own goroutine so the dispatch
	// loop can also notice cancellation/drain; after either, the reader
	// goroutine dies with the process (or on stdin close).
	lines := make(chan []byte)
	var readErr error // set before lines closes
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), stdioMaxLine)
		for sc.Scan() {
			line := make([]byte, len(sc.Bytes()))
			copy(line, sc.Bytes())
			select {
			case lines <- line:
			case <-ctx.Done():
				return
			case <-s.base.Done():
				return
			}
		}
		readErr = sc.Err()
	}()

	defer wg.Wait()
	for {
		select {
		case <-ctx.Done():
			return runctl.Cancelled(ctx)
		case <-s.base.Done():
			return nil // draining: stop admitting, finish in-flight (deferred wg.Wait)
		case line, ok := <-lines:
			if !ok {
				return readErr
			}
			var req stdioRequest
			if err := json.Unmarshal(line, &req); err != nil {
				write(stdioResponse{Error: &api.ErrorBody{Kind: "config",
					Message: fmt.Sprintf("bad request line: %v", err)}})
				continue
			}
			switch op, ok := api.Lookup(req.Op); {
			case ok:
				wg.Add(1)
				body := req.Req
				if len(body) == 0 {
					body = []byte("{}") // an absent payload asks for every default
				}
				go func() {
					defer wg.Done()
					s.dispatch(ctx, "stdio", "", op, bytes.NewReader(body), api.Env{Store: s.store}, func(rep api.Reply, err error) {
						// Marshalling compacts the RawMessage result: stdio
						// carries the HTTP body without its indentation.
						write(stdioResponse{ID: req.ID, OK: err == nil, Result: rep.Body, Error: errorBody(err)})
					})
				}()
			case req.Op == "ping":
				raw, _ := json.Marshal(map[string]string{"status": s.status(), "schema": api.SchemaVersion})
				write(stdioResponse{ID: req.ID, OK: true, Result: raw})
			case req.Op == "shutdown":
				write(stdioResponse{ID: req.ID, OK: true})
				return nil
			default:
				write(stdioResponse{ID: req.ID, Error: &api.ErrorBody{Kind: "config",
					Message: fmt.Sprintf("unknown op %q", req.Op)}})
			}
		}
	}
}
