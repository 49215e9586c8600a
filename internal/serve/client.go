package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nocsim/internal/runner"
)

// Client is the daemon's HTTP client side for the job API: it submits
// plans, follows a job's event stream to completion and probes health.
// The fleet coordinator dispatches to peers through it; commands
// execute plans remotely through fleet.Client, the one runner.Remote.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{},
	}
}

// WithTimeout bounds every HTTP round trip the client makes (the fleet
// coordinator uses a short-timeout client for health probes) and
// returns the client for chaining.
func (c *Client) WithTimeout(d time.Duration) *Client {
	c.hc.Timeout = d
	return c
}

// Base returns the daemon address the client talks to.
func (c *Client) Base() string { return c.base }

// Submit posts a plan and returns the daemon's admission answer without
// waiting for execution.
func (c *Client) Submit(spec runner.PlanSpec) (SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("serve: encoding plan: %w", err)
	}
	var sub SubmitResponse
	err = c.do("POST", "/v1/runs", body, &sub, nil)
	return sub, err
}

// SubmitDispatch is Submit with the coordinator fan-out header set, so
// the receiving daemon executes the job itself instead of re-delegating
// it to its own peers.
func (c *Client) SubmitDispatch(spec runner.PlanSpec) (SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("serve: encoding plan: %w", err)
	}
	var sub SubmitResponse
	err = c.do("POST", "/v1/runs", body, &sub, map[string]string{DispatchHeader: "1"})
	return sub, err
}

// Job fetches a job's current status and, once terminal, results.
func (c *Client) Job(id string) (JobResponse, error) {
	var jr JobResponse
	err := c.do("GET", "/v1/runs/"+id, nil, &jr)
	return jr, err
}

// Wait blocks until job id turns terminal and returns its final
// status and results. It follows GET /v1/runs/{id}/events, which the
// daemon writes as events are emitted, up to the job_done event, then
// makes one GET /v1/runs/{id} for the results. A stream that ends
// before job_done — the daemon died, the connection broke, or ctx was
// cancelled — is an error. A failed job is not: its JobResponse comes
// back with status "failed" and nil error.
func (c *Client) Wait(ctx context.Context, id string) (JobResponse, error) {
	path := "/v1/runs/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return JobResponse{}, fmt.Errorf("serve: building GET %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return JobResponse{}, fmt.Errorf("serve: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return JobResponse{}, httpError("GET", path, resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "job_done" {
			return c.Job(id)
		}
	}
	if err := sc.Err(); err != nil {
		return JobResponse{}, fmt.Errorf("serve: reading GET %s: %w", path, err)
	}
	return JobResponse{}, fmt.Errorf("serve: GET %s: stream ended before job_done", path)
}

// Health probes the daemon's /healthz.
func (c *Client) Health() (HealthResponse, error) {
	var h HealthResponse
	err := c.do("GET", "/healthz", nil, &h)
	return h, err
}

// do runs one JSON round trip, mapping non-2xx answers to errors via
// the daemon's ErrorResponse body. An optional header map is applied to
// the request.
func (c *Client) do(method, path string, body []byte, out any, hdr ...map[string]string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("serve: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, h := range hdr {
		for k, v := range h {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("serve: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return httpError(method, path, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("serve: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// httpError maps a non-2xx answer to an error, quoting the daemon's
// ErrorResponse body when it has one.
func httpError(method, path string, code int, raw []byte) error {
	var er ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, er.Error, code)
	}
	return fmt.Errorf("serve: %s %s: HTTP %d", method, path, code)
}
