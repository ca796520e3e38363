package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"explink/internal/api"
)

// HTTPClient is the remote-worker side of the fabric protocol: a Client that
// speaks to a coordinator's /v1/work endpoints over the service layer's
// HTTP/JSON surface. The zero value plus a Base URL is usable. Only the
// remote-worker path runs it: `expsweep -worker -connect URL` against a
// coordinator started with `-addr`.
type HTTPClient struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// Lease implements Client.
func (c *HTTPClient) Lease(ctx context.Context, worker string) (api.WorkLeaseResponse, error) {
	var resp api.WorkLeaseResponse
	err := c.post(ctx, "work/lease", api.WorkLeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Heartbeat implements Client.
func (c *HTTPClient) Heartbeat(ctx context.Context, lease string) (api.WorkHeartbeatResponse, error) {
	var resp api.WorkHeartbeatResponse
	err := c.post(ctx, "work/heartbeat", api.WorkHeartbeatRequest{Lease: lease}, &resp)
	return resp, err
}

// Complete implements Client.
func (c *HTTPClient) Complete(ctx context.Context, req api.WorkCompleteRequest) (api.WorkCompleteResponse, error) {
	var resp api.WorkCompleteResponse
	err := c.post(ctx, "work/complete", req, &resp)
	return resp, err
}

// post runs one JSON round-trip against /<SchemaVersion>/<path>. Non-2xx
// responses carry {"error": {kind, message}} bodies; the kind is mapped back
// onto the runctl sentinels via ErrorBody.Err so callers classify remote
// failures exactly like local ones.
func (c *HTTPClient) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fabric: encode %s: %w", path, err)
	}
	url := strings.TrimRight(c.Base, "/") + "/" + api.SchemaVersion + "/" + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	res, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	defer res.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(res.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	if res.StatusCode/100 != 2 {
		var eb struct {
			Error *api.ErrorBody `json:"error"`
		}
		if json.Unmarshal(buf, &eb) == nil && eb.Error != nil {
			return fmt.Errorf("fabric: %s: %w", path, eb.Error.Err())
		}
		return fmt.Errorf("fabric: %s: HTTP %d: %s", path, res.StatusCode, strings.TrimSpace(string(buf)))
	}
	if err := json.Unmarshal(buf, out); err != nil {
		return fmt.Errorf("fabric: decode %s: %w", path, err)
	}
	return nil
}
