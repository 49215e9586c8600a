package runner

import (
	"nocsim/internal/core"
	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/topology"
	"nocsim/internal/workload"
)

// Option adjusts an assembled configuration. Presets apply options in
// order, so later options win.
type Option func(*sim.Config)

// Baseline assembles the open (uncontrolled) BLESS system for a
// workload on a width x height mesh: the paper's Table 2 defaults, the
// scale's controller epoch, and the conventional sc.Seed ^ w.Seed
// seeding.
func Baseline(w workload.Workload, width, height int, sc Scale, opts ...Option) sim.Config {
	cfg := sim.Config{
		Width: width, Height: height,
		Apps:   w.Apps,
		Params: sc.Params(),
		Seed:   sc.Seed ^ w.Seed,
		Warmup: sc.Warmup,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Controlled is Baseline under the paper's central mechanism
// (Algorithms 1-3).
func Controlled(w workload.Workload, width, height int, sc Scale, opts ...Option) sim.Config {
	all := make([]Option, 0, len(opts)+1)
	all = append(all, WithController(sim.Central))
	all = append(all, opts...)
	return Baseline(w, width, height, sc, all...)
}

// WithController selects the congestion-control mechanism.
func WithController(k sim.ControllerKind) Option {
	return func(c *sim.Config) { c.Controller = k }
}

// WithRouter selects the network fabric.
func WithRouter(k sim.RouterKind) Option {
	return func(c *sim.Config) { c.Router = k }
}

// WithTopo selects the topology family.
func WithTopo(k topology.Kind) Option {
	return func(c *sim.Config) { c.Topo = k }
}

// WithSeed replaces the conventional seed with an absolute one.
func WithSeed(seed uint64) Option {
	return func(c *sim.Config) { c.Seed = seed }
}

// WithParams replaces the controller parameters (sensitivity sweeps).
func WithParams(p core.Params) Option {
	return func(c *sim.Config) { c.Params = p }
}

// WithStaticUniform throttles every node at the given rate.
func WithStaticUniform(rate float64) Option {
	return func(c *sim.Config) {
		c.Controller = sim.StaticUniform
		c.StaticRate = rate
	}
}

// WithStaticRates throttles node i at rates[i].
func WithStaticRates(rates []float64) Option {
	return func(c *sim.Config) {
		c.Controller = sim.StaticPerNode
		c.StaticRates = rates
	}
}

// WithMapping selects the miss-home mapping; meanHops parameterises the
// locality mappings.
func WithMapping(k sim.MappingKind, meanHops float64) Option {
	return func(c *sim.Config) {
		c.Mapping = k
		c.MeanHops = meanHops
	}
}

// WithGroups services each node's misses within its thread group
// (multithreaded regional traffic).
func WithGroups(groups []int) Option {
	return func(c *sim.Config) {
		c.Mapping = sim.GroupMap
		c.Groups = groups
	}
}

// WithWritebacks enables the write-traffic extension.
func WithWritebacks() Option {
	return func(c *sim.Config) { c.Writebacks = true }
}

// WithWarmup gives the run an uncontrolled warm-start prefix of n
// cycles (0 disables), overriding the scale-level default. All runs of
// a plan that agree modulo measured knobs share one prefix simulation.
func WithWarmup(n int64) Option {
	return func(c *sim.Config) { c.Warmup = n }
}

// WithObs enables the observability collectors for this run,
// overriding the scale-level default.
func WithObs(o obs.Options) Option {
	return func(c *sim.Config) { c.Obs = o }
}

// WithRingGroup selects the hierarchical ring fabric with local rings
// of n nodes.
func WithRingGroup(n int) Option {
	return func(c *sim.Config) {
		c.Router = sim.HierRing
		c.RingGroup = n
	}
}
