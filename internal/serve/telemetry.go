package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"nocsim/internal/obs"
)

// Daemon telemetry: fixed-bucket latency histograms and per-outcome
// counters for /metrics, plus per-job lifecycle spans served as Chrome
// trace-event JSON. All of it is wall-clock instrumentation of the
// service layer — sanctioned ground — and none of it can reach a
// simulation result: spans and histograms observe the queue and the
// runner from outside.

// latencyBuckets is the shared histogram ladder, in seconds. One
// ladder for every histogram keeps the /metrics shape small and the
// format-stability test simple; the range spans a cache hit (sub-ms)
// to a long simulation (minutes).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Histogram is one fixed-bucket latency distribution on the shared
// ladder. It is exported for the fleet layer, whose dispatch-latency
// histogram must render with exactly the same bucket boundaries and
// line shape as the daemon's own; each Histogram guards itself, so the
// fleet can observe from its workers without borrowing the telemetry
// mutex.
type Histogram struct {
	name string

	mu     sync.Mutex
	counts []int64 // per-bucket (non-cumulative); +Inf lives in total
	sum    float64
	total  int64
}

// NewHistogram returns an empty histogram named name on the shared
// 1ms→60s ladder.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, counts: make([]int64, len(latencyBuckets))}
}

// Observe records one latency, in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.total++
}

// Write renders the histogram in Prometheus text format: cumulative
// le-labelled buckets, +Inf, sum and count — always all lines, even at
// zero observations, so the page shape never depends on traffic.
func (h *Histogram) Write(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", h.name, ub, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.total)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.total)
}

// jobOutcomes and runOutcomes enumerate the counter labels in render
// order; emitting every label always pins the page shape.
var (
	jobOutcomes = []string{stateDone, stateFailed}
	runOutcomes = []string{"cached", "fresh"}
)

// telemetry owns the daemon's latency histograms and outcome counters.
// The histograms guard themselves; the telemetry mutex covers only the
// outcome maps.
type telemetry struct {
	queueWait *Histogram // submission -> worker pickup
	runDur    *Histogram // plan.Execute wall time
	cacheGet  *Histogram // result-cache lookup round-trip
	snapStore *Histogram // checkpoint-store round-trip (final-state Put)

	mu   sync.Mutex
	jobs map[string]int64
	runs map[string]int64
}

func newTelemetry() *telemetry {
	return &telemetry{
		queueWait: NewHistogram("nocd_queue_wait_seconds"),
		runDur:    NewHistogram("nocd_run_seconds"),
		cacheGet:  NewHistogram("nocd_cache_lookup_seconds"),
		snapStore: NewHistogram("nocd_snap_store_seconds"),
		jobs:      make(map[string]int64),
		runs:      make(map[string]int64),
	}
}

func (t *telemetry) observe(h *Histogram, d time.Duration) {
	h.Observe(d.Seconds())
}

func (t *telemetry) countJob(outcome string) {
	t.mu.Lock()
	t.jobs[outcome]++
	t.mu.Unlock()
}

func (t *telemetry) countRun(outcome string) {
	t.mu.Lock()
	t.runs[outcome]++
	t.mu.Unlock()
}

// write renders every histogram and counter in fixed order. The
// checkpoint-store histogram appears only on daemons with a store
// configured, mirroring the nocd_snap_ gauge section: the page shape
// depends on configuration, never on traffic.
func (t *telemetry) write(w io.Writer, withSnap bool) {
	hs := []*Histogram{t.queueWait, t.runDur, t.cacheGet}
	if withSnap {
		hs = append(hs, t.snapStore)
	}
	for _, h := range hs {
		h.Write(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range jobOutcomes {
		fmt.Fprintf(w, "nocd_jobs_outcome_total{outcome=%q} %d\n", o, t.jobs[o])
	}
	for _, o := range runOutcomes {
		fmt.Fprintf(w, "nocd_runs_outcome_total{outcome=%q} %d\n", o, t.runs[o])
	}
}

// jobSpan is one recorded lifecycle interval of a job. Spans are
// appended in wall-clock order on whichever goroutine performed the
// work (queue worker, runner pool), guarded by the job's mutex.
type jobSpan struct {
	name    string
	label   string // run label; "" for job-level spans
	start   time.Time
	dur     time.Duration
	instant bool
}

// addSpan records one completed interval.
func (j *job) addSpan(name, label string, start time.Time, dur time.Duration) {
	j.mu.Lock()
	j.spans = append(j.spans, jobSpan{name: name, label: label, start: start, dur: dur})
	j.mu.Unlock()
}

// addInstant records one point event.
func (j *job) addInstant(name string, at time.Time) {
	j.mu.Lock()
	j.spans = append(j.spans, jobSpan{name: name, start: at, instant: true})
	j.mu.Unlock()
}

// spanArgs annotates a run-level span with its run label.
type spanArgs struct {
	Label string `json:"label"`
}

// instantArgs anchors an instant event on the wall clock, in
// microseconds since the Unix epoch.
type instantArgs struct {
	UnixUS int64 `json:"unix_us"`
}

// handleTrace answers GET /v1/jobs/{id}/trace (and the /v1/runs alias)
// with the job's lifecycle spans as Chrome trace-event JSON — the same
// envelope the flit tracer exports, so a job opens in Perfetto next to
// its simulations. Timestamps are microseconds since submission;
// job-level spans ride track (pid 1, tid 1) and each run label gets
// its own tid in first-seen order. The submit instant carries its
// wall-clock time (args.unix_us), so the traces of several jobs can be
// laid on one timeline.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.fail(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	born := j.born
	spans := append([]jobSpan(nil), j.spans...)
	j.mu.Unlock()

	tids := map[string]uint64{"": 1}
	next := uint64(2)
	events := make([]obs.ChromeEvent, 0, len(spans))
	for _, sp := range spans {
		tid, ok := tids[sp.label]
		if !ok {
			tid = next
			next++
			tids[sp.label] = tid
		}
		ts := sp.start.Sub(born).Microseconds()
		if ts < 0 {
			ts = 0
		}
		ev := obs.ChromeEvent{
			Name: sp.name, Cat: "job", Ph: "X",
			Ts: ts, Dur: sp.dur.Microseconds(),
			Pid: 1, Tid: tid,
		}
		if sp.label != "" {
			ev.Cat = "run"
			ev.Args = &spanArgs{Label: sp.label}
		}
		if sp.instant {
			ev.Ph = "i"
			ev.S = "t"
			ev.Dur = 0
			ev.Args = &instantArgs{UnixUS: sp.start.UnixMicro()}
		}
		events = append(events, ev)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	if err := obs.WriteChromeJSON(w, events); err != nil {
		s.logf("trace export for %s: %v", j.id, err)
	}
}
