package serve

import (
	"encoding/json"
	"fmt"
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

// job is one accepted plan moving through the queue. The immutable
// fields are set at submission; everything mutable is guarded by mu.
// Lock ordering: the server's mu is never acquired while holding a
// job's mu (workers touch s.mu first, then j.mu, or each alone).
type job struct {
	id     string
	key    string
	sc     runner.Scale
	runs   []runner.ResolvedRun
	direct bool      // coordinator fan-out: execute in-process, never re-delegate
	born   time.Time // submission instant; anchors the job's trace

	mu         sync.Mutex
	state      string
	errMsg     string
	results    []RunResult
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
// worker.
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

// finish records the job's terminal state and closes the event stream:
// the final event is appended and eventsDone set under one critical
// section, so a streamer that observes done has necessarily been handed
// every event.
func (j *job) finish(results []RunResult, errMsg string) {
	st := stateDone
	if errMsg != "" {
		st = stateFailed
	}
	last, _ := json.Marshal(jobEvent{Type: "job_done", Job: j.id, State: st, Error: errMsg})
	j.mu.Lock()
	j.state = st
	j.errMsg = errMsg
	j.results = results
	j.events = append(j.events, last)
	j.eventsDone = true
	j.signalLocked()
	j.mu.Unlock()
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

// response snapshots the job as its GET /v1/runs/{id} body.
func (j *job) response() JobResponse {
	jr, _ := j.watch()
	return jr
}

// watch snapshots the job together with a channel closed on its next
// change after the snapshot.
func (j *job) watch() (JobResponse, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobResponse{
		ID:      j.id,
		Status:  j.state,
		PlanKey: j.key,
		Error:   j.errMsg,
		Results: j.results,
	}, j.changed
}

// Start launches the queue workers. Call once, before serving requests.
func (s *Server) Start() {
	for w := 0; w < s.cfg.Jobs; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
}

// Drain stops intake (further submissions get 503), closes the queue
// and blocks until every accepted job has finished. Safe to call once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// runJob executes one job on a worker goroutine, translating a panic
// out of the execution stack (the runner panics on infrastructure
// failures) into a failed job instead of a dead worker. The job leaves
// the dedup set strictly before it turns observable as done/failed, so
// a client that saw a terminal state and resubmits always gets a fresh
// job (which then hits the cache) rather than a stale dedup answer.
func (s *Server) runJob(j *job) {
	wait := time.Since(j.born)
	s.tele.observe(s.tele.queueWait, wait)
	j.addSpan("queue", "", j.born, wait)
	s.mu.Lock()
	s.inflight++
	s.signalLocked() // a queue slot freed up
	s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			s.release(j)
			j.finish(nil, fmt.Sprintf("%v", r))
			s.tele.countJob(stateFailed)
			s.logf("job %s panicked: %v", j.id, r)
		}
		s.mu.Lock()
		s.inflight--
		s.jobsTotal++
		s.signalLocked() // the job is terminal
		s.mu.Unlock()
	}()
	j.setState(stateRunning)
	j.emit(jobEvent{Type: "job", Job: j.id, State: stateRunning})
	results, errMsg := s.execute(j)
	s.release(j)
	j.finish(results, errMsg)
	if errMsg == "" {
		s.tele.countJob(stateDone)
	} else {
		s.tele.countJob(stateFailed)
	}
}

// release removes the job from the dedup set.
func (s *Server) release(j *job) {
	s.mu.Lock()
	delete(s.active, j.key)
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
// simulating in-process. It is the daemon's one execution path, so
// every result, cached, delegated or fresh, is counted and streamed
// here, and every result not read from the cache is filed here.
func (s *Server) execute(j *job) ([]RunResult, string) {
	results := make([]RunResult, len(j.runs))
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
		s.record(j, results[i])
	}
	if len(miss) == 0 {
		return results, ""
	}
	if s.delegate != nil && !j.direct {
		runs := make([]runner.ResolvedRun, len(miss))
		for k, i := range miss {
			runs[k] = j.runs[i]
		}
		res, errMsg, handled := s.delegate(DelegatedJob{ID: j.id, Scale: j.sc, Runs: runs, Span: j.addSpan})
		switch {
		case !handled: // every peer is dead: simulate below
		case errMsg != "":
			return nil, errMsg
		case len(res) != len(runs):
			return nil, fmt.Sprintf("serve: delegate returned %d results for %d runs", len(res), len(runs))
		default:
			for k, i := range miss {
				if err := checkDelegated(runs[k], res[k]); err != nil {
					return nil, err.Error()
				}
				s.file(res[k])
				s.record(j, res[k])
				results[i] = res[k]
			}
			return results, ""
		}
	}
	if errMsg := s.simulate(j, miss, results); errMsg != "" {
		return nil, errMsg
	}
	return results, ""
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

// file writes one result's entry to the result cache: the one write
// path, for fresh and delegated results alike. A write failure degrades
// to a log line; it never fails the job.
func (s *Server) file(res RunResult) {
	e := &Entry{Key: res.Key, Manifest: res.Manifest, Metrics: res.Metrics}
	if err := s.cache.Put(e); err != nil {
		s.logf("caching %q: %v (result served uncached)", res.Label, err)
	}
}

// simulate runs the job's missed runs (indices into j.runs) in-process
// through the runner, filling their slots of results, and returns a
// failure message or "". Fresh results are verified by construction:
// the counters hash is computed from the metrics being stored.
func (s *Server) simulate(j *job, miss []int, results []RunResult) string {
	sc := j.sc
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
		s.file(res)
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
