package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// SweepSpec and Axis are the sweep API's request body; the grid
// expands through runner, so a command executing a grid locally and the
// daemon expanding a posted one agree point for point.
type (
	SweepSpec = runner.SweepSpec
	Axis      = runner.Axis
)

// Wire shapes of the sweep NDJSON stream and status endpoint.

// SweepEvent heads the stream: the sweep's id and point count.
type SweepEvent struct {
	Type   string `json:"type"` // "sweep"
	ID     string `json:"id"`
	Points int    `json:"points"`
}

// PointEvent reports one point reaching a terminal state.
type PointEvent struct {
	Type         string       `json:"type"` // "point"
	Index        int          `json:"index"`
	Label        string       `json:"label"`
	Key          string       `json:"key"`
	Job          string       `json:"job,omitempty"`
	State        string       `json:"state"` // "done" | "failed"
	Cached       bool         `json:"cached"`
	CountersHash string       `json:"counters_hash,omitempty"`
	ElapsedMS    float64      `json:"elapsed_ms,omitempty"`
	Error        string       `json:"error,omitempty"`
	Metrics      *sim.Metrics `json:"metrics,omitempty"`
}

// SweepSummary closes the stream.
type SweepSummary struct {
	Type   string `json:"type"` // "sweep_done"
	ID     string `json:"id"`
	Status string `json:"status"` // "done" | "failed"
	Done   int    `json:"done"`
	Cached int    `json:"cached"`
	Failed int    `json:"failed"`
}

// SweepResponse is the GET /v1/sweeps/{id} snapshot.
type SweepResponse struct {
	ID     string       `json:"id"`
	Status string       `json:"status"` // "running" | "done" | "failed"
	Done   int          `json:"done"`
	Cached int          `json:"cached"`
	Failed int          `json:"failed"`
	Points []PointEvent `json:"points"`
}

// sweeps owns the sweep API state: expansion, per-point submission
// against the daemon's own queue (with 429 backpressure retries), and
// the registry behind GET /v1/sweeps/{id}.
type sweeps struct {
	srv *serve.Server

	mu   sync.Mutex
	seq  int64
	byID map[string]*sweepRec
}

// sweepRec is one sweep's registry entry; points hold the latest known
// state per point, terminal or not.
type sweepRec struct {
	id     string
	status string
	done   int
	cached int
	failed int
	points []PointEvent
}

func newSweeps(s *serve.Server) *sweeps {
	return &sweeps{srv: s, byID: make(map[string]*sweepRec)}
}

// handleSubmit expands, validates and executes a sweep, streaming
// point events as NDJSON while the grid runs. Validation is atomic —
// any bad point rejects the whole sweep with 400 before a single job
// is queued — and a client that disconnects mid-stream does not stop
// the sweep: the registry keeps filling for GET /v1/sweeps/{id}.
func (sw *sweeps) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var spec SweepSpec
	if err := dec.Decode(&spec); err != nil {
		sw.fail(w, http.StatusBadRequest, "decoding sweep: %v", err)
		return
	}
	points, err := spec.Points(runner.MaxSweepPoints)
	if err != nil {
		sw.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan := runner.PlanSpec{Scale: spec.Scale, Runs: points}
	sc, runs, err := plan.Resolve(sw.srv.BaseScale())
	if err != nil {
		sw.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	sw.mu.Lock()
	sw.seq++
	rec := &sweepRec{
		id:     fmt.Sprintf("sweep-%06d", sw.seq),
		status: "running",
		points: make([]PointEvent, len(runs)),
	}
	for i, rr := range runs {
		rec.points[i] = PointEvent{
			Type: "point", Index: i, Label: rr.Label, Key: rr.Key, State: "pending",
		}
	}
	sw.byID[rec.id] = rec
	sw.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		// Client write errors are ignored: the sweep keeps running and
		// the registry keeps its record.
		w.Write(append(b, '\n'))
		if fl != nil {
			fl.Flush()
		}
	}
	emit(SweepEvent{Type: "sweep", ID: rec.id, Points: len(runs)})

	sw.run(rec, sc, runs, emit)

	sw.mu.Lock()
	rec.status = "done"
	if rec.failed > 0 {
		rec.status = "failed"
	}
	summary := SweepSummary{
		Type: "sweep_done", ID: rec.id, Status: rec.status,
		Done: rec.done, Cached: rec.cached, Failed: rec.failed,
	}
	sw.mu.Unlock()
	emit(summary)
}

// run drives every point to a terminal state: points are submitted as
// fast as the daemon's admission allows (a 429 retries once a job
// finishes, 503 fails the remainder — the daemon is draining)
// and followed to completion, emitting each point's event as it
// settles. Identical points resolve to the same plan key and dedup
// onto one job. A pass over the points that makes no progress blocks
// on the daemon's change signal, taken before the pass, so it wakes on
// the first job completion after anything it read.
func (sw *sweeps) run(rec *sweepRec, sc runner.Scale, runs []runner.ResolvedRun, emit func(any)) {
	n := len(runs)
	jobs := make([]string, n)  // job id per point; "" = unsubmitted
	settled := make([]bool, n) // terminal event emitted
	remaining := n
	draining := false
	for remaining > 0 {
		changed := sw.srv.Changed()
		progressed := false
		for i := 0; i < n; i++ {
			if settled[i] {
				continue
			}
			if jobs[i] == "" {
				if draining {
					sw.settle(rec, i, PointEvent{
						Type: "point", Index: i, Label: runs[i].Label, Key: runs[i].Key,
						State: "failed", Error: "daemon draining",
					}, emit, &remaining, settled)
					continue
				}
				resp, code := sw.srv.Submit(sc, runs[i:i+1])
				switch code {
				case http.StatusAccepted, http.StatusOK:
					jobs[i] = resp.ID
					progressed = true
				case http.StatusTooManyRequests:
					continue // backpressure; retry after the next completion
				case http.StatusServiceUnavailable:
					draining = true
					sw.settle(rec, i, PointEvent{
						Type: "point", Index: i, Label: runs[i].Label, Key: runs[i].Key,
						State: "failed", Error: "daemon draining",
					}, emit, &remaining, settled)
					continue
				}
			}
			if jobs[i] == "" {
				continue
			}
			jr, ok := sw.srv.JobStatus(jobs[i])
			if !ok {
				sw.settle(rec, i, PointEvent{
					Type: "point", Index: i, Label: runs[i].Label, Key: runs[i].Key,
					Job: jobs[i], State: "failed", Error: "job vanished",
				}, emit, &remaining, settled)
				continue
			}
			switch jr.Status {
			case "done":
				pt := PointEvent{
					Type: "point", Index: i, Label: runs[i].Label, Key: runs[i].Key,
					Job: jobs[i], State: "done",
				}
				if res := resultFor(jr.Results, runs[i].Key); res != nil {
					m := res.Metrics
					pt.Cached = res.Cached
					pt.CountersHash = res.CountersHash
					pt.ElapsedMS = res.ElapsedMS
					pt.Metrics = &m
				} else {
					pt.State = "failed"
					pt.Error = "job result missing point key"
				}
				sw.settle(rec, i, pt, emit, &remaining, settled)
				progressed = true
			case "failed":
				sw.settle(rec, i, PointEvent{
					Type: "point", Index: i, Label: runs[i].Label, Key: runs[i].Key,
					Job: jobs[i], State: "failed", Error: jr.Error,
				}, emit, &remaining, settled)
				progressed = true
			}
		}
		if remaining > 0 && !progressed {
			<-changed
		}
	}
}

// resultFor finds a point's run result in a job's results by key (the
// job may cover a deduped multi-point plan in other deployments; today
// every sweep job is single-run).
func resultFor(results []serve.RunResult, key string) *serve.RunResult {
	for i := range results {
		if results[i].Key == key {
			return &results[i]
		}
	}
	return nil
}

// settle records a point's terminal event and emits it.
func (sw *sweeps) settle(rec *sweepRec, i int, pt PointEvent, emit func(any), remaining *int, settled []bool) {
	sw.mu.Lock()
	rec.points[i] = pt
	if pt.State == "failed" {
		rec.failed++
	} else {
		rec.done++
		if pt.Cached {
			rec.cached++
		}
	}
	sw.mu.Unlock()
	settled[i] = true
	*remaining--
	emit(pt)
}

// handleGet answers GET /v1/sweeps/{id} with the sweep's snapshot.
func (sw *sweeps) handleGet(w http.ResponseWriter, r *http.Request) {
	sw.mu.Lock()
	rec := sw.byID[r.PathValue("id")]
	var resp SweepResponse
	if rec != nil {
		resp = rec.snapshotLocked()
	}
	sw.mu.Unlock()
	if rec == nil {
		sw.fail(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// snapshotLocked copies the record; callers hold the registry lock.
func (rec *sweepRec) snapshotLocked() SweepResponse {
	return SweepResponse{
		ID: rec.id, Status: rec.status,
		Done: rec.done, Cached: rec.cached, Failed: rec.failed,
		Points: append([]PointEvent(nil), rec.points...),
	}
}

// fail answers with an ErrorResponse, mirroring the daemon's errors.
func (sw *sweeps) fail(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(serve.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
