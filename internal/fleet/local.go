package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// Local fallback with preemption. When every peer is dead, the
// coordinator claims a task and simulates it in-process — the same
// execution path a standalone daemon takes, producing the same cache
// entries. While it grinds, the runner polls preemptReady between
// cancel windows: the moment a revived peer sits idle, the local run
// checkpoints (the PR 8 final-state blob, captured mid-run), pushes
// the blob to the peer, and re-dispatches the full run there. The peer
// warm-starts from the pushed checkpoint — restores are byte-exact, so
// the counters hashes are pinned equal to an unpreempted run.

// runLocal executes the task's missed runs in-process, preemptably.
// Panics out of the execution stack propagate to the serve worker's
// recover, failing the job like any local run.
func (c *coordinator) runLocal(t *task) ([]serve.RunResult, string) {
	dj := t.dj
	sc := dj.Scale
	sc.Remote = nil
	sc.ObsDir = ""
	sc.Obs = obs.Options{}
	snaps := c.srv.Snapshots()
	sc.Snapshots = snaps
	every := sc.Epoch
	if every <= 0 {
		every = 1000
	}
	c.logf("job %s: no live peers; executing %d runs locally", dj.ID, len(t.miss))

	// Per-run state filled by each run's hooks on its worker goroutine
	// and read only after Execute joins the pool.
	n := len(t.miss)
	starts := make([]time.Time, n)
	origins := make([]string, n)
	originCycles := make([]int64, n)
	blobs := make([][]byte, n)
	blobCycles := make([]int64, n)
	live := make([]*sim.Sim, n)
	from := make([]int64, n)

	plan := runner.NewPlan(sc)
	for k, i := range t.miss {
		k := k
		r := dj.Runs[i]
		cfg := r.Config
		target := r.Cycles
		run := runner.Run{
			Label:  r.Label,
			Config: cfg,
			Cycles: target,
			Start: func(sm *sim.Sim) {
				starts[k] = time.Now()
				origins[k], originCycles[k] = sm.Origin()
				live[k], from[k] = sm, sm.Cycle()
			},
			Observe: func(sm *sim.Sim) {
				if sm.Cycle() < target {
					// Preempted mid-run: capture the exact state for
					// the hand-off; the blob never reaches the cache.
					blobs[k] = sm.Snapshot()
					blobCycles[k] = sm.Cycle()
					return
				}
				if snaps != nil {
					if err := runner.Checkpoint(snaps, cfg, sm); err != nil {
						c.logf("job %s: checkpointing %q: %v", dj.ID, r.Label, err)
					}
				}
			},
			CancelEvery: every,
		}
		if cfg.Warmup == 0 {
			// A warm-started run may not stop before its warmup cycle
			// (the resume path requires checkpoint cycle >= warmup), so
			// only cold runs are preemptable — and only once they have
			// advanced: a checkpoint of the cycle a run started at
			// saves the peer nothing, so it would cold-start.
			run.Cancel = func() bool { return live[k].Cycle() > from[k] && c.preemptReady(t) }
		}
		plan.AddRun(run)
	}
	runStart := time.Now()
	metrics := plan.Execute()
	dj.Span("run", "", runStart, time.Since(runStart))
	stats := plan.Stats()

	results := make([]serve.RunResult, n)
	var preempted []int // indices into the miss-order arrays
	for k, i := range t.miss {
		r := dj.Runs[i]
		if metrics[k].Cycles < r.Cycles {
			preempted = append(preempted, k)
			continue
		}
		dj.Span("simulate", r.Label, starts[k], stats[k].Elapsed)
		res, err := c.srv.FileResult(r, metrics[k], stats[k].Elapsed, origins[k], originCycles[k])
		if err != nil {
			return nil, err.Error()
		}
		results[k] = res
	}
	if len(preempted) > 0 {
		if errMsg := c.handoff(t, preempted, blobs, blobCycles, results); errMsg != "" {
			return nil, errMsg
		}
	}
	return results, ""
}

// handoff ships the preempted runs' checkpoints to the idle peer that
// triggered the preemption and re-dispatches them there; the peer's
// runner finds the pushed blob in its store and simulates only the
// remainder. A hand-off that fails (the peer died again) falls back to
// finishing locally, resuming from the same checkpoint when a local
// store is configured.
func (c *coordinator) handoff(t *task, preempted []int, blobs [][]byte, blobCycles []int64, results []serve.RunResult) string {
	p := t.preemptTo
	dj := t.dj
	snaps := c.srv.Snapshots()
	spec := runner.PlanSpec{
		Scale: runner.ScaleSpec{Epoch: dj.Scale.Epoch, Seed: dj.Scale.Seed},
	}
	for _, k := range preempted {
		r := dj.Runs[t.miss[k]]
		digest, err := runner.CacheKey(r.Config, 0)
		if err != nil {
			return fmt.Sprintf("fleet: keying checkpoint of %q: %v", r.Label, err)
		}
		stateKey, err := runner.CacheKey(r.Config, blobCycles[k])
		if err != nil {
			return fmt.Sprintf("fleet: keying checkpoint of %q: %v", r.Label, err)
		}
		if snaps != nil {
			if err := snaps.Put(digest, blobCycles[k], stateKey, blobs[k]); err != nil {
				c.logf("filing checkpoint of %q: %v", r.Label, err)
			}
		}
		if err := p.client.PushSnapshot(digest, blobCycles[k], stateKey, blobs[k]); err != nil {
			// Benign: the peer cold-starts and recomputes the prefix,
			// with byte-identical results either way.
			c.logf("pushing checkpoint of %q to %s: %v (peer will recompute)", r.Label, p.name, err)
		}
		raw, err := json.Marshal(&r.Config)
		if err != nil {
			return fmt.Sprintf("fleet: encoding config of run %q: %v", r.Label, err)
		}
		spec.Runs = append(spec.Runs, runner.RunSpec{Label: r.Label, Cycles: r.Cycles, Config: raw})
	}
	c.logf("job %s: preempting %d runs to idle peer %s", dj.ID, len(preempted), p.name)

	start := time.Now()
	sub, err := p.client.SubmitDispatch(spec)
	if err == nil {
		c.dispatch.Observe(time.Since(start).Seconds())
		dj.Span("dispatch", "", start, time.Since(start))
		c.mu.Lock()
		p.dispatched++
		c.mu.Unlock()
		var jr serve.JobResponse
		if jr, err = p.client.Wait(context.Background(), sub.ID); err == nil {
			if jr.Status == "failed" {
				return fmt.Sprintf("fleet: peer %s: %s", p.name, jr.Error)
			}
			if len(jr.Results) != len(preempted) {
				return fmt.Sprintf("fleet: peer %s returned %d results for %d preempted runs",
					p.name, len(jr.Results), len(preempted))
			}
			dj.Span("peer_run", "", start, time.Since(start))
			c.replicate(t, jr.Results)
			for j, k := range preempted {
				results[k] = jr.Results[j]
			}
			return ""
		}
	}
	c.logf("hand-off to %s failed: %v (finishing locally)", p.name, err)
	c.markDead(p)
	return c.finishLocally(t, preempted, results)
}

// markDead records a peer failure observed outside the worker path.
func (c *coordinator) markDead(p *peer) {
	c.mu.Lock()
	if p.alive {
		p.alive = false
		p.dead++
	}
	c.signalPeerDown()
	c.mu.Unlock()
}

// finishLocally completes preempted runs in-process without further
// preemption, resuming from the filed checkpoint when a local store is
// configured and recomputing from scratch otherwise.
func (c *coordinator) finishLocally(t *task, preempted []int, results []serve.RunResult) string {
	dj := t.dj
	sc := dj.Scale
	sc.Remote = nil
	sc.ObsDir = ""
	sc.Obs = obs.Options{}
	snaps := c.srv.Snapshots()
	sc.Snapshots = snaps

	n := len(preempted)
	starts := make([]time.Time, n)
	origins := make([]string, n)
	originCycles := make([]int64, n)
	plan := runner.NewPlan(sc)
	for j, k := range preempted {
		j := j
		r := dj.Runs[t.miss[k]]
		cfg := r.Config
		run := runner.Run{
			Label:  r.Label,
			Config: cfg,
			Cycles: r.Cycles,
			Start: func(sm *sim.Sim) {
				starts[j] = time.Now()
				origins[j], originCycles[j] = sm.Origin()
			},
		}
		if snaps != nil {
			run.Observe = func(sm *sim.Sim) {
				if err := runner.Checkpoint(snaps, cfg, sm); err != nil {
					c.logf("job %s: checkpointing %q: %v", dj.ID, r.Label, err)
				}
			}
		}
		plan.AddRun(run)
	}
	metrics := plan.Execute()
	stats := plan.Stats()
	for j, k := range preempted {
		r := dj.Runs[t.miss[k]]
		dj.Span("simulate", r.Label, starts[j], stats[j].Elapsed)
		res, err := c.srv.FileResult(r, metrics[j], stats[j].Elapsed, origins[j], originCycles[j])
		if err != nil {
			return err.Error()
		}
		results[k] = res
	}
	return ""
}

// short abbreviates a content address for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
