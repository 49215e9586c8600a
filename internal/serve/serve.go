// Package serve is the simulation-as-a-service layer: a long-running
// daemon (cmd/nocd) that accepts run plans over HTTP, executes them on
// a bounded job queue layered over the runner, and answers repeat
// submissions from a content-addressed on-disk result cache.
//
// The cache is sound because of — and only because of — the simulator's
// determinism contract: a run's results are a pure function of its
// canonicalized configuration and cycle budget (runner.CacheKey), never
// of pool sizes or which process executed it. Equal keys
// therefore mean equal counters, which the stored manifest's counters
// hash makes checkable: every cache read re-derives the hash from the
// stored metrics and refuses mismatches, so serving from cache is
// indistinguishable from re-simulating, byte for byte.
//
// The daemon is sanctioned ground for the two things the simulator
// forbids elsewhere: wall-clock reads (request latency metrics and job
// deadlines — neither of which can reach a cached or reported result;
// a timed-out job is discarded, never cached) and
// goroutines outside the runner's pools (the HTTP listener, the queue
// workers and one goroutine per running dispatched job, all of which
// sit strictly above the runner and share no simulator state).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/snap"
)

// DispatchHeader marks a submission as fan-out traffic from a fleet
// coordinator. A daemon that is itself a coordinator must execute such
// jobs locally rather than re-delegating them, or a cycle of peers
// would bounce work forever; the header is how the receiving side
// knows.
const DispatchHeader = "X-Nocd-Dispatch"

// MaxBodyBytes caps a submitted plan or sweep body; clients split
// larger plans into consecutive submissions under it.
const MaxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// Scale is the base execution scale; submitted plans may override
	// cycles, epoch and seed (runner.ScaleSpec) but never the execution
	// resources.
	Scale runner.Scale
	// CacheDir roots the content-addressed result cache.
	CacheDir string
	// QueueCap bounds the accepted-but-unstarted client jobs, and
	// separately the dispatched jobs (DispatchHeader) running at once;
	// submissions beyond either bound are rejected with 429. 0 means 64.
	QueueCap int
	// Jobs is the number of queue workers: how many client jobs run at
	// once. 0 means 1. Dispatched jobs do not wait for a worker; each
	// starts on arrival, because its coordinator's window already paces
	// them. So a peerless daemon at Jobs 1 runs a sweep's single-run
	// point jobs one at a time, while a peer runs as many dispatched
	// jobs at once as its coordinator keeps in flight.
	Jobs int
	// JobTimeout bounds one job's simulation time; a job that exceeds it
	// is failed and its partial results discarded. 0 disables.
	JobTimeout time.Duration
	// SampleInterval is the interval-sampler period attached to every
	// fresh run for event streaming. 0 means 1000.
	SampleInterval int64
	// SnapDir, when non-empty, roots the checkpoint store: fresh runs
	// are snapshotted at completion so later jobs can resume (extend)
	// them, and warm-start runs share their warmup prefixes across jobs.
	SnapDir string
	// SnapCap caps the checkpoint store's total bytes; the oldest
	// checkpoints are evicted first. 0 means unlimited.
	SnapCap int64
	// Log receives operational lines; nil discards them.
	Log io.Writer
}

// Server is the daemon: cache, queue, and HTTP surface.
type Server struct {
	cfg   Config
	cache *Cache
	snaps *snap.Store
	mux   *http.ServeMux
	tele  *telemetry

	mu        sync.Mutex
	jobs      map[string]*job // by id, append-only
	active    map[string]*job // by plan key, queued or running only
	seq       int64
	draining  bool
	inflight  int
	direct    int // dispatched jobs started and not yet finished
	jobsTotal int64
	// changed is closed and replaced whenever a worker dequeues a job or
	// a job turns terminal (see Changed).
	changed chan struct{}

	queue chan *job
	wg    sync.WaitGroup

	em        sync.Mutex
	endpoints map[string]*endpointStats

	// Fleet extension points, installed (before Start) by the fleet
	// layer; both nil on a standalone daemon. delegate may execute a
	// job's cache misses elsewhere; extraMetrics appends a subsystem
	// section to /metrics.
	delegate     func(DelegatedJob) (results []RunResult, errMsg string, handled bool)
	extraMetrics func(io.Writer)
}

// endpointStats accumulates one route's request count and latency.
type endpointStats struct {
	count   int64
	seconds float64
}

// New builds a Server over the given cache directory. Call Start (or
// ListenAndServe, which does) before submitting work.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 1000
	}
	cache, err := OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	var snaps *snap.Store
	if cfg.SnapDir != "" {
		snaps, err = snap.NewStore(cfg.SnapDir, cfg.SnapCap)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		snaps:     snaps,
		tele:      newTelemetry(),
		jobs:      make(map[string]*job),
		active:    make(map[string]*job),
		queue:     make(chan *job, cfg.QueueCap),
		endpoints: make(map[string]*endpointStats),
		changed:   make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/runs", s.handleSubmit)
	s.route("POST /v1/runs/{id}/extend", s.handleExtend)
	s.route("GET /v1/runs/{id}", s.handleJob)
	s.route("GET /v1/runs/{id}/events", s.handleEvents)
	s.route("GET /v1/runs/{id}/trace", s.handleTrace)
	s.route("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.route("GET /v1/cache/stats", s.handleCacheStats)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result store (tests and stats).
func (s *Server) Cache() *Cache { return s.cache }

// Snapshots exposes the checkpoint store; nil when unconfigured.
func (s *Server) Snapshots() *snap.Store { return s.snaps }

// BaseScale returns the daemon's base execution scale; the fleet sweep
// layer resolves grid points against it exactly as handleSubmit does.
func (s *Server) BaseScale() runner.Scale { return s.cfg.Scale }

// Route registers an additional endpoint on the daemon's mux with the
// same per-endpoint latency instrumentation as the built-ins. The
// fleet layer adds its sweep routes here so one listener serves both
// surfaces. Call before the server starts handling traffic.
func (s *Server) Route(pattern string, h http.HandlerFunc) { s.route(pattern, h) }

// SetDelegate installs the job-delegation hook. A non-nil delegate is
// offered the cache misses of every non-dispatched job; returning
// handled=false falls back to in-process execution. The daemon
// verifies, files, counts and streams every result the delegate
// returns, as it does its own. Install before Start: workers read the
// field unguarded.
func (s *Server) SetDelegate(d func(DelegatedJob) ([]RunResult, string, bool)) { s.delegate = d }

// SetExtraMetrics installs a subsystem section renderer appended to
// /metrics between the daemon's own counters and the per-endpoint
// lines. Install before the server starts handling traffic.
func (s *Server) SetExtraMetrics(fn func(io.Writer)) { s.extraMetrics = fn }

// route registers a pattern with per-endpoint latency instrumentation.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		elapsed := time.Since(start)
		s.em.Lock()
		ep := s.endpoints[pattern]
		if ep == nil {
			ep = &endpointStats{}
			s.endpoints[pattern] = ep
		}
		ep.count++
		ep.seconds += elapsed.Seconds()
		s.em.Unlock()
	})
}

// handleSubmit accepts a PlanSpec, resolves and validates it atomically
// against the daemon's base scale, dedups it against queued/running
// work, and enqueues it — or answers 429 when the queue is full, 503
// when draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	var spec runner.PlanSpec
	if err := dec.Decode(&spec); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding plan: %v", err)
		return
	}
	sc, runs, err := spec.Resolve(s.cfg.Scale)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.enqueue(w, sc, runs, r.Header.Get(DispatchHeader) != "")
}

// enqueue admits a resolved plan via submit and writes the HTTP answer
// (shared by submit and extend).
func (s *Server) enqueue(w http.ResponseWriter, sc runner.Scale, runs []runner.ResolvedRun, direct bool) {
	resp, code := s.submit(sc, runs, direct)
	switch {
	case code == http.StatusServiceUnavailable:
		s.fail(w, code, "draining; not accepting new jobs")
	case code == http.StatusTooManyRequests && direct:
		s.fail(w, code, "%d dispatched jobs running; retry later", s.cfg.QueueCap)
	case code == http.StatusTooManyRequests:
		s.fail(w, code, "queue full (%d jobs); retry later", s.cfg.QueueCap)
	default:
		s.writeJSON(w, code, resp)
	}
}

// Submit enqueues a resolved plan from in-process callers (the fleet
// sweep layer), with the same dedup and admission control as the HTTP
// path. The returned status code is 202 (accepted), 200 (deduped onto
// an active job), 429 (queue full) or 503 (draining); the response is
// meaningful for the first two.
func (s *Server) Submit(sc runner.Scale, runs []runner.ResolvedRun) (SubmitResponse, int) {
	return s.submit(sc, runs, false)
}

// submit dedups, admits and starts or queues a resolved plan. direct
// marks coordinator fan-out traffic: the coordinator's window already
// admitted and paced it, so it starts at once on its own goroutine
// instead of waiting for a queue worker, and it must execute in-process
// rather than be re-delegated. At most QueueCap direct jobs run at a
// time; the next one gets 429, which the coordinator retries. The queue
// send and the goroutine start stay inside the s.mu critical section
// alongside the draining check: Drain sets draining and closes the
// queue under the same mutex, so a send can never hit a closed channel
// and every direct job is on s.wg before Drain waits on it. The job's
// submit instant and queued event are recorded before either, so no
// worker's event can precede them.
func (s *Server) submit(sc runner.Scale, runs []runner.ResolvedRun, direct bool) (SubmitResponse, int) {
	key := planKey(runs)
	cached := 0
	for _, rr := range runs {
		if s.cache.Contains(rr.Key) {
			cached++
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SubmitResponse{}, http.StatusServiceUnavailable
	}
	if ex, ok := s.active[key]; ok {
		s.mu.Unlock()
		return SubmitResponse{
			ID: ex.id, Status: ex.getState(), Dedup: true,
			CachedRuns: cached, TotalRuns: len(runs), PlanKey: key,
		}, http.StatusOK
	}
	if direct && s.direct >= s.cfg.QueueCap || !direct && len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return SubmitResponse{}, http.StatusTooManyRequests
	}
	s.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		key:     key,
		sc:      sc,
		runs:    runs,
		direct:  direct,
		state:   stateQueued,
		born:    time.Now(),
		changed: make(chan struct{}),
	}
	j.addInstant("submit", j.born)
	j.emit(jobEvent{Type: "job", Job: j.id, State: stateQueued})
	s.jobs[j.id] = j
	s.active[key] = j
	if direct {
		s.direct++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runJob(j)
		}()
	} else {
		s.queue <- j // never blocks: every send holds s.mu and saw room
	}
	s.mu.Unlock()

	s.logf("job %s accepted: %d runs, %d cached, plan %s", j.id, len(runs), cached, short(key))
	return SubmitResponse{
		ID: j.id, Status: stateQueued,
		CachedRuns: cached, TotalRuns: len(runs), PlanKey: key,
	}, http.StatusAccepted
}

// JobStatus snapshots a job by id for in-process callers (the fleet
// sweep layer); ok is false for unknown ids.
func (s *Server) JobStatus(id string) (JobResponse, bool) {
	jr, _, ok := s.JobWatch(id)
	return jr, ok
}

// JobWatch is JobStatus plus a channel closed on the job's next state
// change or event after the snapshot, so an in-process caller can wait
// for a non-terminal job without polling it.
//
// A done job's results carry the metrics and manifest read back from
// the cache, as GET /v1/runs/{id} does; when that read-back fails the
// snapshot reports the job failed with the read error instead.
func (s *Server) JobWatch(id string) (JobResponse, <-chan struct{}, bool) {
	j := s.job(id)
	if j == nil {
		return JobResponse{}, nil, false
	}
	jr, ch, err := s.response(j)
	if err != nil {
		jr = JobResponse{ID: j.id, Status: stateFailed, PlanKey: j.key, Error: err.Error()}
	}
	return jr, ch, true
}

// Changed returns a channel closed the next time any worker dequeues a
// job (a queue slot frees up) or any job turns terminal. Take it before
// reading the state it guards — submitting, or reading JobStatus — and
// a wait on it cannot miss the change it waits for.
func (s *Server) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// signalLocked wakes every waiter on Changed and arms a fresh channel;
// callers hold s.mu.
func (s *Server) signalLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// handleExtend accepts {"cycles": N} and enqueues a new job covering
// the referenced job's runs for N more cycles each. With a checkpoint
// store configured, each extended run resumes from the original's
// final-state checkpoint and only simulates the added tail; without
// one it recomputes, with byte-identical results either way.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.fail(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if st := j.getState(); st != stateDone {
		s.fail(w, http.StatusConflict, "job %s is %s; only done jobs can be extended", j.id, st)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req ExtendRequest
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding extend request: %v", err)
		return
	}
	if req.Cycles <= 0 {
		s.fail(w, http.StatusBadRequest, "extend cycles must be positive, got %d", req.Cycles)
		return
	}
	runs := make([]runner.ResolvedRun, len(j.runs))
	for i, rr := range j.runs {
		rr.Cycles += req.Cycles
		key, err := runner.CacheKey(rr.Config, rr.Cycles)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "keying extended run %q: %v", rr.Label, err)
			return
		}
		rr.Key = key
		runs[i] = rr
	}
	s.logf("job %s: extending %d runs by %d cycles", j.id, len(runs), req.Cycles)
	s.enqueue(w, j.sc, runs, r.Header.Get(DispatchHeader) != "")
}

// handleJob answers a job's current status and, once done, results.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.fail(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	jr, _, err := s.response(j)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, jr)
}

// handleEvents streams a job's event buffer as NDJSON: the backlog is
// replayed immediately, then the stream follows the live buffer —
// waking on each emitted event, never on a timer — until the job
// finishes or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.fail(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	sent := 0
	for {
		evs, done, changed := j.eventsSince(sent)
		for _, e := range evs {
			if _, err := w.Write(append(e, '\n')); err != nil {
				return
			}
		}
		sent += len(evs)
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.cache.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := HealthResponse{
		Status:     "ok",
		QueueDepth: len(s.queue),
		InFlight:   s.inflight,
		Jobs:       s.jobsTotal,
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, h)
}

// handleMetrics emits the daemon's Prometheus-style text page in a
// fixed section order: build info, cache, queue, checkpoint store,
// latency histograms, outcome counters, then per-endpoint HTTP lines
// sorted by route pattern. The section order is deliberate and pinned
// by a format-stability test; lexicographically sorting the whole page
// (as earlier versions did) would scramble histogram buckets, filing
// le="10" before le="2.5".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	s.mu.Lock()
	depth, inflight, jobs := len(s.queue), s.inflight, s.jobsTotal
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "nocd_build_info{go_version=%q,goos=%q,goarch=%q} 1\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "nocd_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "nocd_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "nocd_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "nocd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "nocd_cache_writes_total %d\n", cs.Writes)
	fmt.Fprintf(w, "nocd_cache_hit_ratio %g\n", cs.HitRatio)
	fmt.Fprintf(w, "nocd_queue_depth %d\n", depth)
	fmt.Fprintf(w, "nocd_inflight_jobs %d\n", inflight)
	fmt.Fprintf(w, "nocd_jobs_total %d\n", jobs)
	if s.snaps != nil {
		ss := s.snaps.Stats()
		fmt.Fprintf(w, "nocd_snap_entries %d\n", ss.Entries)
		fmt.Fprintf(w, "nocd_snap_bytes %d\n", ss.Bytes)
		fmt.Fprintf(w, "nocd_snap_hits_total %d\n", ss.Hits)
		fmt.Fprintf(w, "nocd_snap_misses_total %d\n", ss.Misses)
		fmt.Fprintf(w, "nocd_snap_writes_total %d\n", ss.Writes)
		fmt.Fprintf(w, "nocd_snap_corrupt_total %d\n", ss.Corrupt)
		fmt.Fprintf(w, "nocd_snap_evicted_total %d\n", ss.Evicted)
	}
	s.tele.write(w, s.snaps != nil)
	if s.extraMetrics != nil {
		s.extraMetrics(w)
	}
	s.em.Lock()
	patterns := make([]string, 0, len(s.endpoints))
	for pattern := range s.endpoints {
		patterns = append(patterns, pattern)
	}
	sort.Strings(patterns)
	for _, pattern := range patterns {
		ep := s.endpoints[pattern]
		fmt.Fprintf(w, "nocd_http_requests_total{path=%q} %d\n", pattern, ep.count)
		fmt.Fprintf(w, "nocd_http_request_seconds_sum{path=%q} %g\n", pattern, ep.seconds)
	}
	s.em.Unlock()
}

// job looks a job up by id.
func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Connection deadlines of the daemon's HTTP server. A client gets
// readHeaderTimeout to send its request line and headers, and an idle
// keep-alive connection is closed after idleTimeout, so a client that
// never finishes a request cannot hold a connection open forever.
// Request bodies and event streams are not bounded: a plan upload is
// small and a stream lasts as long as its job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer is the daemon's HTTP server around its handler.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ListenAndServe runs the daemon until a signal arrives on stop, then
// drains: intake closes (503), queued jobs finish, the HTTP server
// shuts down gracefully, and the method returns nil for a clean drain.
func (s *Server) ListenAndServe(addr string, stop <-chan os.Signal) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	s.Start()
	hs := s.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.logf("listening on %s (cache %s, queue %d, %d workers)",
		ln.Addr(), s.cfg.CacheDir, s.cfg.QueueCap, s.cfg.Jobs)

	select {
	case sig := <-stop:
		s.logf("received %v; draining", sig)
	case err := <-errc:
		return fmt.Errorf("serve: http server: %w", err)
	}

	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	cs := s.cache.Stats()
	s.mu.Lock()
	jobs := s.jobsTotal
	s.mu.Unlock()
	s.logf("drained cleanly; %d jobs served, cache %d hits / %d misses", jobs, cs.Hits, cs.Misses)
	return nil
}

// planKey digests a resolved plan into one content address: the sha256
// over the runs' own keys, in order (each run key already covers its
// config and cycle budget).
func planKey(runs []runner.ResolvedRun) string {
	keys := make([]string, len(runs))
	for i, r := range runs {
		keys[i] = r.Key
	}
	return runner.DigestStrings(keys)
}

// writeJSON answers one request with a JSON body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// fail answers one request with an ErrorResponse.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// logf writes one operational line; results never depend on it.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "nocd: "+format+"\n", args...)
}
