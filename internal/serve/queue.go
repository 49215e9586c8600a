package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
)

// Job states, in lifecycle order.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one accepted plan until it finishes. The immutable fields are
// set at submission; everything mutable is guarded by mu. Lock
// ordering: the server's mu is never acquired while holding a job's mu
// (jobs touch s.mu first, then j.mu, or each alone).
type job struct {
	id     string
	key    string
	sc     runner.Scale
	runs   []runner.ResolvedRun
	direct bool      // coordinator fan-out: execute in-process, never re-delegate
	born   time.Time // submission instant; anchors the job's trace

	mu     sync.Mutex
	state  string
	errMsg string
	// results holds one entry per run once the job is done. A run whose
	// result the cache holds (stored) keeps only its summary; its
	// metrics and manifest are read back from the cache on request.
	results    []RunResult
	stored     []bool
	events     []json.RawMessage
	eventsDone bool
	spans      []jobSpan
	// changed is closed and replaced on every state change and every
	// emitted event: a waiter takes the current channel together with
	// what it has read, and wakes on the next change after that read.
	changed chan struct{}
}

// signalLocked wakes every waiter on the job's current change channel
// and arms a fresh one; callers hold j.mu.
func (j *job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) getState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.signalLocked()
	j.mu.Unlock()
}

// emit appends one event to the job's stream buffer. Marshal failures
// are impossible for the event shapes used (plain structs of strings,
// bools and floats), so they are swallowed rather than crashing a
// job.
func (j *job) emit(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, b)
	j.signalLocked()
	j.mu.Unlock()
}

// finish records the job's terminal state, which it returns, and closes
// the event stream: the final event is appended and eventsDone set
// under one critical section, so a streamer that observes done has
// necessarily been handed every event. stored[i] reports that the cache
// holds results[i]: that run keeps only its summary, so a finished job
// does not hold a second copy of what is on disk.
func (j *job) finish(results []RunResult, stored []bool, errMsg string) string {
	st := stateDone
	if errMsg != "" {
		st = stateFailed
	}
	last, _ := json.Marshal(jobEvent{Type: "job_done", Job: j.id, State: st, Error: errMsg})
	j.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	for i := range results {
		if stored[i] {
			results[i].Metrics, results[i].Manifest = sim.Metrics{}, obs.Manifest{}
		}
	}
	j.results, j.stored = results, stored
	j.events = append(j.events, last)
	j.eventsDone = true
	j.signalLocked()
	j.mu.Unlock()
	return st
}

// eventsSince returns the buffered events from index n on, whether the
// stream is complete, and a channel closed on the job's next change
// after this read. When done is true the returned slice contains every
// remaining event.
func (j *job) eventsSince(n int) ([]json.RawMessage, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > len(j.events) {
		n = len(j.events)
	}
	return j.events[n:], j.eventsDone, j.changed
}

// watch snapshots the job together with which of its results are
// summaries to read back from the cache (see finish) and a channel
// closed on its next change after the snapshot.
func (j *job) watch() (JobResponse, []bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobResponse{
		ID:      j.id,
		Status:  j.state,
		PlanKey: j.key,
		Error:   j.errMsg,
		Results: j.results,
	}, j.stored, j.changed
}

// response snapshots the job as its GET /v1/runs/{id} body, reading the
// metrics and manifest of every stored run back from the cache. The
// reads are not cache hits or misses. A stored entry that cannot be
// read back, or no longer carries the run's counters hash, is an error:
// a result is never answered with its metrics missing.
func (s *Server) response(j *job) (JobResponse, <-chan struct{}, error) {
	jr, stored, changed := j.watch()
	if jr.Results == nil {
		return jr, changed, nil
	}
	jr.Results = slices.Clone(jr.Results)
	for i := range jr.Results {
		if !stored[i] {
			continue
		}
		res := &jr.Results[i]
		e, err := s.cache.read(res.Key)
		if err == nil && e == nil {
			err = fmt.Errorf("serve: cache entry %s is gone", short(res.Key))
		}
		if err == nil && e.Manifest.CountersHash != res.CountersHash {
			err = fmt.Errorf("serve: cache entry %s holds counters hash %s, the job reported %s",
				short(res.Key), e.Manifest.CountersHash, res.CountersHash)
		}
		if err != nil {
			return JobResponse{}, changed, fmt.Errorf("job %s: reading back run %q: %w", j.id, res.Label, err)
		}
		res.Metrics, res.Manifest = e.Metrics, e.Manifest
	}
	return jr, changed, nil
}

// Start opens the run slots: jobs accepted before it wait, and none
// simulates until it is called. Later calls do nothing.
func (s *Server) Start() {
	s.start.Do(func() {
		for range cap(s.slots) {
			s.slots <- struct{}{}
		}
	})
}

// Drain stops intake (further submissions get 503) and blocks until
// every accepted job has finished. On a daemon that was never started
// it opens the run slots first, so its jobs can finish.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.Start()
	s.wg.Wait()
}

// takeSlots blocks until the job holds one run slot, then takes up to
// want-1 more that are free without waiting, and returns how many it
// holds. No job waits while it holds a slot, so two jobs can never wait
// on each other. The job's queue wait ends here.
func (s *Server) takeSlots(j *job, want int) int {
	<-s.slots
	held := 1
more:
	for held < want {
		select {
		case <-s.slots:
			held++
		default:
			break more
		}
	}
	wait := time.Since(j.born)
	s.tele.observe(s.tele.queueWait, wait)
	j.addSpan("queue", "", j.born, wait)
	return held
}

// runJob executes one job on its own goroutine. The job leaves the
// dedup set, freeing its QueueCap admission, strictly before it turns
// observable as done/failed, so a client that saw a terminal state and
// resubmits always gets a fresh job (which then hits the cache) rather
// than a stale dedup answer.
func (s *Server) runJob(j *job) {
	results, stored, errMsg := s.execute(j)
	s.mu.Lock()
	delete(s.active, j.key)
	s.mu.Unlock()
	s.tele.countJob(j.finish(results, stored, errMsg))
	s.mu.Lock()
	s.jobsTotal++
	s.signalLocked() // the job is terminal
	s.mu.Unlock()
}

// DelegatedJob is the view of a job's cache misses handed to the
// delegation hook (the fleet coordinator): the runs to execute plus a
// closure onto the job's trace, so remote execution shows up in
// /v1/jobs/{id}/trace like local execution does.
type DelegatedJob struct {
	ID    string
	Scale runner.Scale
	Runs  []runner.ResolvedRun

	// Span records an interval on the job's timeline.
	Span func(name, label string, start time.Time, dur time.Duration)
}

// execute answers every run of the job: from the result cache, else
// from the delegate (unless the job is itself dispatched work), else by
// simulating in-process on the run slots it holds. It is the daemon's
// one execution path, so every result, cached, delegated or fresh, is
// counted and streamed here, and every result not read from the cache
// is filed here. stored[i] reports that the cache holds results[i]. A
// panic out of the runner (infrastructure failures) fails the job.
func (s *Server) execute(j *job) (results []RunResult, stored []bool, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			results, stored, errMsg = nil, nil, fmt.Sprintf("%v", r)
			s.logf("job %s panicked: %v", j.id, r)
		}
	}()
	results = make([]RunResult, len(j.runs))
	stored = make([]bool, len(j.runs))
	var miss []int
	for i, r := range j.runs {
		lookup := time.Now()
		e, err := s.cache.Get(r.Key)
		s.tele.observe(s.tele.cacheGet, time.Since(lookup))
		j.addSpan("cache_lookup", r.Label, lookup, time.Since(lookup))
		if err != nil {
			s.logf("job %s: %v (re-simulating)", j.id, err)
		}
		if e == nil {
			miss = append(miss, i)
			continue
		}
		results[i] = RunResult{
			Label: r.Label, Key: r.Key, Cached: true,
			CountersHash: e.Manifest.CountersHash,
			Metrics:      e.Metrics,
			Manifest:     e.Manifest,
		}
		stored[i] = true
	}
	delegated := len(miss) > 0 && s.delegate != nil && !j.direct
	held := 0
	defer func() {
		for range held {
			s.slots <- struct{}{}
		}
	}()
	if len(miss) > 0 && !delegated {
		held = s.takeSlots(j, len(miss))
	}
	// The job runs once it holds its run slots or needs none; the runs
	// the cache answered (so far exactly the stored ones) stream next.
	j.setState(stateRunning)
	j.emit(jobEvent{Type: "job", Job: j.id, State: stateRunning})
	for i, ok := range stored {
		if ok {
			s.record(j, results[i])
		}
	}
	if len(miss) == 0 {
		return results, stored, ""
	}
	if delegated {
		runs := make([]runner.ResolvedRun, len(miss))
		for k, i := range miss {
			runs[k] = j.runs[i]
		}
		res, errMsg, handled := s.delegate(DelegatedJob{ID: j.id, Scale: j.sc, Runs: runs, Span: j.addSpan})
		switch {
		case !handled: // every peer is dead: simulate below
			held = s.takeSlots(j, len(miss))
		case errMsg != "":
			return nil, nil, errMsg
		case len(res) != len(runs):
			return nil, nil, fmt.Sprintf("serve: delegate returned %d results for %d runs", len(res), len(runs))
		default:
			for k, i := range miss {
				if err := checkDelegated(runs[k], res[k]); err != nil {
					return nil, nil, err.Error()
				}
				stored[i] = s.file(res[k])
				s.record(j, res[k])
				results[i] = res[k]
			}
			return results, stored, ""
		}
	}
	if errMsg := s.simulate(j, miss, results, stored, held); errMsg != "" {
		return nil, nil, errMsg
	}
	return results, stored, ""
}

// checkDelegated verifies a result the delegate returned for run r
// before it is filed or returned: the key must be r's, and the counters
// hash recomputed from the metrics must match the manifest's
// (Entry.Verify) and the one the executing daemon reported.
func checkDelegated(r runner.ResolvedRun, res RunResult) error {
	e := Entry{Key: res.Key, Manifest: res.Manifest, Metrics: res.Metrics}
	if err := e.Verify(r.Key); err != nil {
		return fmt.Errorf("delegated run %q: %w", r.Label, err)
	}
	if res.CountersHash != res.Manifest.CountersHash {
		return fmt.Errorf("delegated run %q: reported counters hash %s, manifest says %s",
			r.Label, res.CountersHash, res.Manifest.CountersHash)
	}
	return nil
}

// record counts one run's outcome and streams its run_done event.
func (s *Server) record(j *job, res RunResult) {
	outcome := "fresh"
	if res.Cached {
		outcome = "cached"
	}
	s.tele.countRun(outcome)
	j.emit(runDoneEvent{Type: "run_done", Label: res.Label, Key: res.Key,
		Cached: res.Cached, CountersHash: res.CountersHash})
}

// file writes one result's entry to the result cache, the one write
// path for fresh and delegated results alike, and reports whether it
// succeeded. A write failure degrades to a log line; it never fails the
// job, which then keeps the whole result in memory.
func (s *Server) file(res RunResult) bool {
	e := &Entry{Key: res.Key, Manifest: res.Manifest, Metrics: res.Metrics}
	if err := s.cache.Put(e); err != nil {
		s.logf("caching %q: %v (result served uncached)", res.Label, err)
		return false
	}
	return true
}

// simulate runs the job's missed runs (indices into j.runs) in-process
// through the runner, at most one per run slot the job holds, filling
// their entries of results and stored, and returns a failure message or
// "". Fresh results are verified by construction: the counters hash is
// computed from the metrics being stored.
func (s *Server) simulate(j *job, miss []int, results []RunResult, stored []bool, slots int) string {
	sc := j.sc
	sc.Parallel = slots
	sc.Remote = nil // the daemon is the remote; execute in-process
	sc.ObsDir = ""
	sc.Obs = obs.Options{SampleInterval: s.cfg.SampleInterval, Epochs: true}
	sc.Snapshots = s.snaps

	// The deadline is written before the plan executes and only read
	// afterwards (the cancel closure shares no mutable state), so the
	// runner's worker goroutines race on nothing.
	var deadline time.Time
	var cancel func() bool
	if s.cfg.JobTimeout > 0 {
		deadline = time.Now().Add(s.cfg.JobTimeout)
		cancel = func() bool { return time.Now().After(deadline) }
	}
	every := sc.Epoch
	if every <= 0 {
		every = 1000
	}

	// Per-run provenance and wall-clock starts, filled by each run's
	// Start hook on its worker goroutine and read only after Execute
	// joins the pool — no two goroutines touch the same slot.
	origins := make([]string, len(miss))
	originCycles := make([]int64, len(miss))
	starts := make([]time.Time, len(miss))

	plan := runner.NewPlan(sc)
	for k, i := range miss {
		k := k
		r := j.runs[i]
		label := r.Label
		run := runner.Run{
			Label:  r.Label,
			Config: r.Config,
			Cycles: r.Cycles,
			Start: func(sm *sim.Sim) {
				starts[k] = time.Now()
				origins[k], originCycles[k] = sm.Origin()
				if o := sm.Obs(); o != nil {
					if o.Sampler != nil {
						o.Sampler.SetSink(func(smp obs.Sample) {
							j.emit(sampleEvent{Type: "sample", Label: label, Sample: smp})
						})
					}
					if o.Epochs != nil {
						o.Epochs.SetSink(func(rec obs.EpochRecord) {
							j.emit(epochEvent{Type: "epoch", Label: label, Record: rec})
						})
					}
				}
			},
			Cancel:      cancel,
			CancelEvery: every,
		}
		if s.snaps != nil {
			// Checkpoint the final state so a later extend job resumes
			// here instead of recomputing; a timed-out run is excluded
			// by the partial check below never reaching the cache, but
			// its checkpoint is still exact state and safe to keep.
			cfg := r.Config
			run.Observe = func(sm *sim.Sim) {
				ckpt := time.Now()
				err := runner.Checkpoint(s.snaps, cfg, sm)
				s.tele.observe(s.tele.snapStore, time.Since(ckpt))
				j.addSpan("checkpoint", label, ckpt, time.Since(ckpt))
				if err != nil {
					s.logf("job %s: checkpointing %q: %v", j.id, label, err)
				}
			}
		}
		plan.AddRun(run)
	}
	runStart := time.Now()
	metrics := plan.Execute()
	j.addSpan("run", "", runStart, time.Since(runStart))
	stats := plan.Stats()

	exportStart := time.Now()
	for k, i := range miss {
		r := j.runs[i]
		m := metrics[k]
		if m.Cycles < r.Cycles {
			// The cancel closure tripped mid-run: the metrics are
			// partial, must never reach the cache, and fail the job.
			return fmt.Sprintf("serve: job exceeded %v timeout (run %q stopped at cycle %d of %d)",
				s.cfg.JobTimeout, r.Label, m.Cycles, r.Cycles)
		}
		s.tele.observe(s.tele.runDur, stats[k].Elapsed)
		j.addSpan("simulate", r.Label, starts[k], stats[k].Elapsed)
		res, err := freshResult(r, m, stats[k].Elapsed, origins[k], originCycles[k])
		if err != nil {
			return err.Error()
		}
		stored[i] = s.file(res)
		s.record(j, res)
		results[i] = res
	}
	j.addSpan("export", "", exportStart, time.Since(exportStart))
	return ""
}

// freshResult builds the result of one run simulated in-process, with
// the manifest its cache entry carries. origin and originCycle are the
// run's warm-start provenance (sim.Origin). Only an unencodable config
// is an error.
func freshResult(r runner.ResolvedRun, m sim.Metrics, elapsed time.Duration, origin string, originCycle int64) (RunResult, error) {
	hash := runner.CountersHash(m)
	elapsedMS := float64(elapsed.Microseconds()) / 1000
	rawCfg, err := json.Marshal(&r.Config)
	if err != nil {
		return RunResult{}, fmt.Errorf("serve: encoding config of run %q: %v", r.Label, err)
	}
	if origin == "" {
		origin = "cold"
	}
	man := obs.Manifest{
		Label:        r.Label,
		Seed:         r.Config.Seed,
		Nodes:        m.Nodes,
		Cycles:       m.Cycles,
		ElapsedMS:    elapsedMS,
		CountersHash: hash,
		WarmSource:   origin,
		WarmCycle:    originCycle,
		Config:       rawCfg,
	}
	man.FillEnv()
	return RunResult{
		Label: r.Label, Key: r.Key, Cached: false,
		CountersHash: hash, ElapsedMS: elapsedMS, Metrics: m, Manifest: man,
	}, nil
}
