package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// Client is the sweep API's client side: it submits a grid, consumes
// the NDJSON stream, and hands back the points in grid order. It is
// the one runner.Remote: every command's -server flag sets it as
// Scale.Remote, so a plan runs through the same runner.Plan locally or
// on a daemon, whose sweep API fans the points out over its peers.
//
// Failure semantics are all-or-nothing: any point failing terminally —
// or the stream truncating mid-sweep — fails the whole call, so a
// driver never renders a partial table.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a daemon at base.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

var _ runner.Remote = (*Client)(nil)

// SweepResult is a completed sweep: every point terminal and done.
type SweepResult struct {
	ID     string
	Points []PointEvent // in grid order
	Done   int
	Cached int
	Failed int
}

// Sweep submits the spec and consumes the stream to completion,
// returning an error — never partial points — when any point fails.
func (c *Client) Sweep(spec SweepSpec) (*SweepResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding sweep: %w", err)
	}
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fleet: POST /v1/sweeps: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var er serve.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			return nil, fmt.Errorf("fleet: sweep rejected: %s (HTTP %d)", er.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("fleet: sweep rejected: HTTP %d", resp.StatusCode)
	}

	res := &SweepResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20) // a point's Metrics can be large
	complete := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("fleet: decoding sweep stream: %w", err)
		}
		switch head.Type {
		case "sweep":
			var ev SweepEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, fmt.Errorf("fleet: decoding sweep header: %w", err)
			}
			res.ID = ev.ID
		case "point":
			var pt PointEvent
			if err := json.Unmarshal(line, &pt); err != nil {
				return nil, fmt.Errorf("fleet: decoding point event: %w", err)
			}
			res.Points = append(res.Points, pt)
		case "sweep_done":
			var sum SweepSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("fleet: decoding sweep summary: %w", err)
			}
			res.Done, res.Cached, res.Failed = sum.Done, sum.Cached, sum.Failed
			complete = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: reading sweep stream: %w", err)
	}
	if !complete {
		return nil, fmt.Errorf("fleet: sweep stream truncated before summary (sweep %s)", res.ID)
	}
	if res.Failed > 0 {
		for _, pt := range res.Points {
			if pt.State == "failed" {
				return nil, fmt.Errorf("fleet: sweep %s: %d of %d points failed; first: %q: %s",
					res.ID, res.Failed, len(res.Points), pt.Label, pt.Error)
			}
		}
		return nil, fmt.Errorf("fleet: sweep %s: %d points failed", res.ID, res.Failed)
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Index < res.Points[j].Index })
	return res, nil
}

// ExecuteSpecs implements runner.Remote over the sweep API: the plan's
// runs become explicit sweep points, submitted as consecutive sweeps
// that each fit the daemon's body cap, and the completed points map
// back to results in plan order.
func (c *Client) ExecuteSpecs(spec runner.PlanSpec) ([]runner.RemoteResult, error) {
	batches, err := batchSweeps(spec, serve.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	out := make([]runner.RemoteResult, 0, len(spec.Runs))
	for _, b := range batches {
		res, err := c.Sweep(b)
		if err != nil {
			return nil, err
		}
		if len(res.Points) != len(b.Runs) {
			return nil, fmt.Errorf("fleet: sweep %s returned %d points for %d runs",
				res.ID, len(res.Points), len(b.Runs))
		}
		for _, pt := range res.Points {
			if pt.Metrics == nil {
				return nil, fmt.Errorf("fleet: sweep %s point %q carries no metrics", res.ID, pt.Label)
			}
			out = append(out, runner.RemoteResult{
				Metrics:   *pt.Metrics,
				ElapsedMS: pt.ElapsedMS,
				Cached:    pt.Cached,
			})
		}
	}
	return out, nil
}

// batchSweeps splits a plan's runs, in order, into explicit-point
// sweeps whose JSON encodings each fit in limit bytes and whose point
// counts and summed nodes fit runner.MaxSweepPoints and
// runner.MaxPlanNodes. A run too large to ship alone is an error.
func batchSweeps(spec runner.PlanSpec, limit int) ([]SweepSpec, error) {
	empty, err := json.Marshal(SweepSpec{Scale: spec.Scale})
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding sweep: %w", err)
	}
	// A batch encodes as the empty sweep plus `,"runs":[` and `]`, and
	// one comma between runs.
	overhead := len(empty) + len(`,"runs":[]`)
	var out []SweepSpec
	size, nodes := 0, 0
	for _, r := range spec.Runs {
		n, err := r.Nodes()
		if err != nil {
			return nil, fmt.Errorf("fleet: run %q: %w", r.Label, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding run %q: %w", r.Label, err)
		}
		if overhead+len(b) > limit {
			return nil, fmt.Errorf("fleet: run %q encodes to %d bytes, over the %d-byte request cap",
				r.Label, len(b), limit)
		}
		if len(out) == 0 || size+1+len(b) > limit || nodes+n > runner.MaxPlanNodes ||
			len(out[len(out)-1].Runs) == runner.MaxSweepPoints {
			out = append(out, SweepSpec{Scale: spec.Scale})
			size, nodes = overhead-1, 0 // the first run takes no comma
		}
		last := &out[len(out)-1]
		last.Runs = append(last.Runs, r)
		size += 1 + len(b)
		nodes += n
	}
	return out, nil
}
