package fleet

import (
	"time"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// runLocal executes the task's missed runs in-process — the fallback
// when every peer is dead — and files each result through
// Server.FileResult, the write path a standalone daemon takes, so the
// cache entries are the same. Panics out of the execution stack
// propagate to the serve worker's recover, failing the job like any
// local run.
func (c *coordinator) runLocal(t *task) ([]serve.RunResult, string) {
	dj := t.dj
	sc := dj.Scale
	sc.Remote = nil
	sc.ObsDir = ""
	sc.Obs = obs.Options{}
	snaps := c.srv.Snapshots()
	sc.Snapshots = snaps
	c.logf("job %s: no live peers; executing %d runs locally", dj.ID, len(t.miss))

	// Per-run state filled by each run's Start hook on its worker
	// goroutine and read only after Execute joins the pool.
	n := len(t.miss)
	starts := make([]time.Time, n)
	origins := make([]string, n)
	originCycles := make([]int64, n)

	plan := runner.NewPlan(sc)
	for k, i := range t.miss {
		k := k
		r := dj.Runs[i]
		cfg := r.Config
		run := runner.Run{
			Label:  r.Label,
			Config: cfg,
			Cycles: r.Cycles,
			Start: func(sm *sim.Sim) {
				starts[k] = time.Now()
				origins[k], originCycles[k] = sm.Origin()
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
	runStart := time.Now()
	metrics := plan.Execute()
	dj.Span("run", "", runStart, time.Since(runStart))
	stats := plan.Stats()

	results := make([]serve.RunResult, n)
	for k, i := range t.miss {
		r := dj.Runs[i]
		dj.Span("simulate", r.Label, starts[k], stats[k].Elapsed)
		res, err := c.srv.FileResult(r, metrics[k], stats[k].Elapsed, origins[k], originCycles[k])
		if err != nil {
			return nil, err.Error()
		}
		results[k] = res
	}
	return results, ""
}

// short abbreviates a content address for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
