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
	var results []RunResult
	var errMsg string
	handled := false
	if d := s.delegate; d != nil && !j.direct {
		results, errMsg, handled = d(s.delegated(j))
	}
	if !handled {
		results, errMsg = s.execute(j)
	}
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

// DelegatedJob is the view of a queued job handed to the delegation
// hook (the fleet coordinator): the work to execute plus closures back
// into the job's trace, event stream and the daemon's run counters, so
// remote execution shows up in /v1/jobs/{id}/trace and /metrics exactly
// like local execution does.
type DelegatedJob struct {
	ID    string
	Scale runner.Scale
	Runs  []runner.ResolvedRun

	// Span and Instant record trace intervals and point events on the
	// job's timeline; EmitRunDone appends a run_done event to the job's
	// stream; CountRun bumps nocd_runs_outcome_total ("cached"/"fresh").
	Span        func(name, label string, start time.Time, dur time.Duration)
	Instant     func(name string, at time.Time)
	EmitRunDone func(label, key string, cached bool, countersHash string)
	CountRun    func(outcome string)
}

// delegated wraps a job for the delegation hook.
func (s *Server) delegated(j *job) DelegatedJob {
	return DelegatedJob{
		ID:      j.id,
		Scale:   j.sc,
		Runs:    j.runs,
		Span:    j.addSpan,
		Instant: j.addInstant,
		EmitRunDone: func(label, key string, cached bool, countersHash string) {
			j.emit(runDoneEvent{Type: "run_done", Label: label, Key: key,
				Cached: cached, CountersHash: countersHash})
		},
		CountRun: s.tele.countRun,
	}
}

// execute resolves each run against the cache and simulates the misses
// through the runner, returning the per-run results or a failure
// message. Fresh results are verified-by-construction (the counters
// hash is computed from the metrics being stored) and written back
// crash-safely; a cache write failure degrades to a log line, it never
// fails the job.
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
		if e == nil && s.lookup != nil {
			pl := time.Now()
			e = s.lookup(r.Key)
			j.addSpan("peer_lookup", r.Label, pl, time.Since(pl))
		}
		if e == nil {
			miss = append(miss, i)
			continue
		}
		s.tele.countRun("cached")
		results[i] = RunResult{
			Label: r.Label, Key: r.Key, Cached: true,
			CountersHash: e.Manifest.CountersHash,
			Metrics:      e.Metrics,
		}
		j.emit(runDoneEvent{Type: "run_done", Label: r.Label, Key: r.Key,
			Cached: true, CountersHash: e.Manifest.CountersHash})
	}

	if len(miss) > 0 {
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
				return nil, fmt.Sprintf("serve: job exceeded %v timeout (run %q stopped at cycle %d of %d)",
					s.cfg.JobTimeout, r.Label, m.Cycles, r.Cycles)
			}
			s.tele.observe(s.tele.runDur, stats[k].Elapsed)
			j.addSpan("simulate", r.Label, starts[k], stats[k].Elapsed)
			s.tele.countRun("fresh")
			res, err := s.FileResult(r, m, stats[k].Elapsed, origins[k], originCycles[k])
			if err != nil {
				return nil, err.Error()
			}
			results[i] = res
			j.emit(runDoneEvent{Type: "run_done", Label: r.Label, Key: r.Key,
				Cached: false, CountersHash: res.CountersHash})
		}
		j.addSpan("export", "", exportStart, time.Since(exportStart))
	}
	return results, ""
}

// FileResult hashes, manifests and caches one freshly simulated run —
// the one write path for every in-process execution in the daemon, the
// queue's own and the fleet coordinator's local fallback alike, so a
// result is indistinguishable whoever computed it. origin and
// originCycle are the run's warm-start provenance (sim.Origin). A
// cache write failure degrades to a log line; only an unencodable
// config is an error.
func (s *Server) FileResult(r runner.ResolvedRun, m sim.Metrics, elapsed time.Duration, origin string, originCycle int64) (RunResult, error) {
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
	if err := s.cache.Put(&Entry{Key: r.Key, Manifest: man, Metrics: m}); err != nil {
		s.logf("caching %q: %v (result served uncached)", r.Label, err)
	}
	return RunResult{
		Label: r.Label, Key: r.Key, Cached: false,
		CountersHash: hash, ElapsedMS: elapsedMS, Metrics: m,
	}, nil
}
