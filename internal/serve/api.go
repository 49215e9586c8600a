package serve

import (
	"nocsim/internal/obs"
	"nocsim/internal/sim"
)

// This file is the wire vocabulary of the daemon's HTTP API. Requests
// are runner.PlanSpec JSON (the same declarative form Execute ships for
// remote plans); these are the response shapes.

// RunResult reports one run of a completed job.
type RunResult struct {
	// Label is the run's name; Key its content address.
	Label string `json:"label"`
	Key   string `json:"key"`
	// Cached reports that the result came from the content-addressed
	// cache without simulating.
	Cached bool `json:"cached"`
	// CountersHash is the run's counters digest — equal hashes mean
	// identical simulations, whether fresh or cached.
	CountersHash string `json:"counters_hash"`
	// ElapsedMS is the simulation wall clock; 0 for cached results.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Metrics is the full run summary.
	Metrics sim.Metrics `json:"metrics"`
	// Manifest is the reproducibility manifest of the daemon that
	// simulated the run: the one it filed with a fresh result, or the
	// cache entry's own. A coordinator files it with the result.
	Manifest obs.Manifest `json:"manifest"`
}

// SubmitResponse answers POST /v1/runs.
type SubmitResponse struct {
	// ID addresses the job under /v1/runs/{id}.
	ID string `json:"id"`
	// Status is the job state at response time (queued, running, done,
	// failed).
	Status string `json:"status"`
	// Dedup reports that an identical plan was already queued or running
	// and this response addresses that job instead of a new one.
	Dedup bool `json:"dedup"`
	// CachedRuns counts the plan's runs already present in the cache at
	// submission time; TotalRuns is the plan size.
	CachedRuns int `json:"cached_runs"`
	TotalRuns  int `json:"total_runs"`
	// PlanKey is the whole plan's content address (digest of the run
	// keys, in order).
	PlanKey string `json:"plan_key"`
}

// JobResponse answers GET /v1/runs/{id}.
type JobResponse struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	PlanKey string `json:"plan_key"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Results are the per-run reports of a done job, in plan order.
	Results []RunResult `json:"results,omitempty"`
}

// ExtendRequest is the body of POST /v1/runs/{id}/extend: run the
// referenced job's plan for Cycles more cycles per run, resuming each
// run from its final-state checkpoint when one is stored.
type ExtendRequest struct {
	Cycles int64 `json:"cycles"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	// QueueDepth counts the unfinished jobs still queued: waiting for
	// run slots, or not yet past their cache lookups.
	QueueDepth int `json:"queue_depth"`
	// InFlight counts the unfinished jobs running: simulating on their
	// run slots, delegated, or answered from cache. QueueDepth plus
	// InFlight is what QueueCap bounds.
	InFlight int `json:"in_flight"`
	// Jobs counts jobs completed (done or failed) since startup.
	Jobs int64 `json:"jobs"`
}

// Streamed event shapes (GET /v1/runs/{id}/events, one JSON object per
// line): jobEvent marks state transitions, sampleEvent carries one
// interval-sampler window of a live run, runDoneEvent closes one run.

type jobEvent struct {
	Type  string `json:"type"` // "job" or "job_done"
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

type sampleEvent struct {
	Type   string `json:"type"` // "sample"
	Label  string `json:"label"`
	Sample any    `json:"sample"`
}

// epochEvent carries one congestion-ledger record of a live run: every
// input and output of one controller decision, streamed as it lands.
type epochEvent struct {
	Type   string          `json:"type"` // "epoch"
	Label  string          `json:"label"`
	Record obs.EpochRecord `json:"record"`
}

type runDoneEvent struct {
	Type         string `json:"type"` // "run_done"
	Label        string `json:"label"`
	Key          string `json:"key"`
	Cached       bool   `json:"cached"`
	CountersHash string `json:"counters_hash"`
}
