// Package runner is the experiment harness's execution layer. A driver
// *declares* the simulations it needs as a Plan of Runs — label, an
// assembled sim.Config, a cycle budget — and Execute runs them across a
// bounded worker pool, handing the metrics back in declaration order.
//
// The contract is determinism: every simulation is independent and
// seeded, so the pool size changes only wall-clock time, never results.
// A Plan executed at Parallel=1 and Parallel=N produces identical
// metrics in identical order; full-evaluation regeneration costs
// max-of-runs instead of sum-of-runs.
//
// The pool is the only parallelism: it runs up to Scale.Parallel
// simulations at once, and each simulation steps on one goroutine.
package runner

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"nocsim/internal/sim"
)

// Run declares one simulation.
type Run struct {
	// Label names the run in reports ("fig2c/rate=0.3").
	Label string
	// Config is the assembled system.
	Config sim.Config
	// Cycles is the simulated length.
	Cycles int64
	// Stride, when positive, splits the run into Stride-cycle windows
	// and invokes Observe after every window instead of once at the
	// end; time-series drivers sample the live simulation in between.
	// The run still covers at least Cycles cycles (rounded up to whole
	// windows, matching a manual Run-in-a-loop).
	Stride int64
	// Observe, when non-nil, is called with the live simulation — after
	// the full run, or after each Stride window. It executes on the
	// worker goroutine, so it must touch only state owned by this Run
	// (e.g. a slot of a per-run slice).
	Observe func(*sim.Sim)
	// Start, when non-nil, is called with the assembled simulation
	// before the first cycle (on the worker goroutine). Service layers
	// use it to attach streaming sinks to the run's collectors.
	Start func(*sim.Sim)
	// Cancel, when non-nil, is polled between windows of CancelEvery
	// cycles (and between Stride windows); returning true stops the run
	// early. A cancelled run's metrics cover only the cycles executed,
	// so callers must treat them as partial and never cache them. The
	// window split itself cannot change results: stepping is window-size
	// invariant (Run(a) then Run(b) is Run(a+b)).
	Cancel func() bool
	// CancelEvery is the Cancel polling granularity in cycles; 0 means
	// 10_000. Ignored when Cancel is nil or Stride is set.
	CancelEvery int64
}

// Stat reports one executed run. Elapsed is wall clock and Cached
// (the remote executor answered from its result cache) depends on what
// ran before; both are excluded from JSON so that a rendered Result is
// byte-identical across pool sizes and executors (callers that want
// them, like cmd/experiments -json, read the fields directly).
type Stat struct {
	Label   string        `json:"label"`
	Nodes   int           `json:"nodes"`
	Cycles  int64         `json:"cycles"`
	Elapsed time.Duration `json:"-"`
	Cached  bool          `json:"-"`
}

// Plan is an ordered collection of declared runs.
type Plan struct {
	sc       Scale
	runs     []Run
	stats    []Stat
	progress *Progress

	// warm single-flights the warm-prefix computation per (prefix
	// digest, warmup cycle): concurrent sweep points forking from the
	// same prefix share one simulation instead of racing to recompute it.
	wm   sync.Mutex
	warm map[string]*warmEntry
}

// NewPlan starts an empty plan at the given scale, inheriting the
// scale's progress reporter.
func NewPlan(sc Scale) *Plan { return &Plan{sc: sc, progress: sc.Progress} }

// SetProgress attaches a live per-run completion reporter; nil detaches.
func (p *Plan) SetProgress(pr *Progress) { p.progress = pr }

// Add declares a run and returns its index, which is also the index of
// its metrics in Execute's result.
func (p *Plan) Add(label string, cfg sim.Config, cycles int64) int {
	return p.AddRun(Run{Label: label, Config: cfg, Cycles: cycles})
}

// AddRun declares a fully-specified run and returns its index.
func (p *Plan) AddRun(r Run) int {
	p.runs = append(p.runs, r)
	return len(p.runs) - 1
}

// Len returns the number of declared runs.
func (p *Plan) Len() int { return len(p.runs) }

// Execute runs every declared simulation across the plan's worker pool
// and returns their metrics in declaration order. Per-run reports are
// available from Stats afterwards.
func (p *Plan) Execute() []sim.Metrics {
	n := len(p.runs)
	out := make([]sim.Metrics, n)
	p.stats = make([]Stat, n)
	if n == 0 {
		return out
	}
	if p.progress != nil {
		p.progress.begin(n)
	}
	local := make([]int, 0, n)
	if p.sc.Remote != nil {
		local = p.executeRemote(out)
	} else {
		for i := range p.runs {
			local = append(local, i)
		}
	}
	if len(local) == 0 {
		return out
	}
	pool := p.sc.pool(len(local))
	if pool == 1 {
		for _, i := range local {
			out[i] = p.execOne(i)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = p.execOne(i)
			}
		}()
	}
	for _, i := range local {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// executeRemote ships every plain run — no Observe/Stride/Start/Cancel
// hook, no local obs export — to the scale's Remote executor, filling
// their slots of out and stats directly, and returns the indices that
// must still execute in-process (hooked runs need the live simulation).
// A remote failure is a harness failure, not a driver-recoverable
// condition, so it panics like the executor's other infrastructure
// errors; command entry points turn it into a message and a non-zero
// exit.
func (p *Plan) executeRemote(out []sim.Metrics) (local []int) {
	spec := PlanSpec{Scale: ScaleSpec{Cycles: p.sc.Cycles, Epoch: p.sc.Epoch, Seed: p.sc.Seed}}
	var remote []int
	for i, r := range p.runs {
		if r.Observe != nil || r.Start != nil || r.Cancel != nil || r.Stride > 0 || p.sc.ObsDir != "" {
			local = append(local, i)
			continue
		}
		raw, err := json.Marshal(&r.Config)
		if err != nil {
			panic(fmt.Sprintf("runner: encoding config of remote run %q: %v", r.Label, err))
		}
		spec.Runs = append(spec.Runs, RunSpec{Label: r.Label, Cycles: r.Cycles, Config: raw})
		remote = append(remote, i)
	}
	if len(remote) == 0 {
		return local
	}
	results, err := p.sc.Remote.ExecuteSpecs(spec)
	if err != nil {
		panic(fmt.Sprintf("runner: remote execution: %v", err))
	}
	if len(results) != len(remote) {
		panic(fmt.Sprintf("runner: remote executor returned %d results for %d runs", len(results), len(remote)))
	}
	for k, i := range remote {
		out[i] = results[k].Metrics
		p.stats[i] = Stat{
			Label:   p.runs[i].Label,
			Nodes:   nodesOf(p.runs[i].Config),
			Cycles:  results[k].Metrics.Cycles,
			Elapsed: time.Duration(results[k].ElapsedMS * float64(time.Millisecond)),
			Cached:  results[k].Cached,
		}
		if p.progress != nil {
			p.progress.finish(p.stats[i])
		}
	}
	return local
}

// execOne assembles and runs one declared simulation.
func (p *Plan) execOne(i int) sim.Metrics {
	r := p.runs[i]
	cfg := r.Config
	nodes := nodesOf(cfg)
	if !cfg.Obs.Enabled() {
		cfg.Obs = p.sc.Obs
	}
	start := time.Now()
	// startSim restores from the nearest usable checkpoint (same-config
	// resume, or a warm-prefix fork at Config.Warmup) when the scale has
	// a snapshot store; at is the cycle the simulation begins at, so
	// remaining is what is left to actually step. A warm run's declared
	// Cycles all lie after the warmup prefix.
	s, at := p.startSim(cfg, r)
	remaining := r.Cycles
	if cfg.Warmup > 0 {
		remaining += cfg.Warmup
	}
	remaining -= at
	if remaining < 0 {
		remaining = 0
	}
	if r.Start != nil {
		r.Start(s)
	}
	switch {
	case r.Stride > 0:
		for done := int64(0); done < remaining; done += r.Stride {
			if r.Cancel != nil && r.Cancel() {
				break
			}
			s.Run(r.Stride)
			if r.Observe != nil {
				r.Observe(s)
			}
		}
	case r.Cancel != nil:
		every := r.CancelEvery
		if every <= 0 {
			every = 10_000
		}
		for done := int64(0); done < remaining && !r.Cancel(); done += every {
			w := every
			if done+w > remaining {
				w = remaining - done
			}
			s.Run(w)
		}
		if r.Observe != nil {
			r.Observe(s)
		}
	default:
		s.Run(remaining)
		if r.Observe != nil {
			r.Observe(s)
		}
	}
	m := s.Metrics()
	elapsed := time.Since(start)
	if p.sc.ObsDir != "" {
		if err := ExportObs(s, p.sc.ObsDir, r.Label, cfg, elapsed); err != nil {
			panic(err)
		}
	}
	p.stats[i] = Stat{Label: r.Label, Nodes: nodes, Cycles: m.Cycles, Elapsed: elapsed}
	if p.progress != nil {
		p.progress.finish(p.stats[i])
	}
	return m
}

// Stats returns the per-run reports of the last Execute, in declaration
// order. Nil before Execute.
func (p *Plan) Stats() []Stat { return p.stats }

// meshOf mirrors sim.Config's default mesh dimensions.
func meshOf(cfg sim.Config) (width, height int) {
	width, height = cfg.Width, cfg.Height
	if width == 0 {
		width = 4
	}
	if height == 0 {
		height = 4
	}
	return width, height
}

// nodesOf is the node count of cfg's mesh.
func nodesOf(cfg sim.Config) int {
	w, h := meshOf(cfg)
	return w * h
}

// Map runs fn(0..n-1) across the scale's worker pool and returns the
// results in index order. It parallelises experiment stages that are
// not sim.Config-shaped — open-loop traffic sweeps, trace analyses —
// under the same bounded pool as Execute.
func Map[T any](sc Scale, n int, fn func(int) T) []T {
	out := make([]T, n)
	pool := sc.pool(n)
	if pool <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
