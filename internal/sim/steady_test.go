package sim

import (
	"testing"

	"nocsim/internal/allocs"
	"nocsim/internal/core"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
	"nocsim/internal/workload"
)

// headline8x8 is the paper's headline system at test scale: an 8x8
// BLESS mesh of heavy applications with a 1000-cycle controller epoch,
// under ctl.
func headline8x8(ctl ControllerKind) Config {
	cat, _ := workload.CategoryByName("H")
	p := core.DefaultParams()
	p.Epoch = 1000
	return Config{
		Width: 8, Height: 8,
		Apps:       workload.Generate(cat, 64, 3).Apps,
		Controller: ctl,
		Params:     p,
		Seed:       3,
	}
}

// measuredEpochs is the steady-state stretch TestClosedLoopSteadyStateAllocs
// measures after its warm-up.
const measuredEpochs = 40

// growToPeak names the closed loop's sanctioned allocations: structures
// that grow until they fit the run's high-water mark and then never
// again, plus the decision record each controller epoch keeps. Every
// other allocating line fails TestClosedLoopSteadyStateAllocs, and so
// does a site that allocates more than its Max over the measured
// epochs. The grow budgets are about 1.5x the most any case measures
// (flitQueue 82, scheduleReply 42, pendTable 17, the rest 0 or 1), so
// a structure that allocates every cycle, not only at a new high-water
// mark, fails; the decision record copies the rates once per epoch.
var growToPeak = []allocs.Grow{
	{Func: "noc.(*flitQueue).grow", Code: "nb := make([]Flit, n)", Max: 128},
	{Func: "noc.(*pendTable).grow", Code: "t.slots = make([]pendingPacket, len(old)*2)", Max: 32},
	{Func: "noc.(*NIC).Receive", Code: "n.delivered = append(n.delivered, pkt)", Max: 8},
	{Func: "noc.(*FlitPool).Reserve", Max: 8},
	{Func: "noc.(*FlitPool).Free", Code: "p.free = append(p.free, h)", Max: 8},
	{Func: "sim.(*Sim).scheduleReply", Code: "s.replyWheel[slot] = append(s.replyWheel[slot], pendingReply{", Max: 64},
	{Func: "sim.(*Sim).runEpoch", Code: "cp.Rates = append([]float64(nil), d.Rates...)", Max: measuredEpochs},
	{Func: "sim.(*Sim).runEpoch", Code: "s.decisions = append(s.decisions, cp)", Max: 4},
}

// TestClosedLoopSteadyStateAllocs is the closed-loop counterpart of
// stepbench's TestZeroSteadyStateAllocs: after a 20k-cycle warm-up the
// whole system — cores, L1s, reply wheel, fabric, NICs, controller and,
// in the obs case, the tracer and spatial grids — allocates only at the
// growToPeak sites, within their budgets, over 40 epochs. Any other
// allocating line, or a sanctioned one over budget, fails the case with
// its file:line. The cases cover every fabric, controller,
// topology and the writeback path the closed loop can reach; the seeds are
// fixed, so a failure is a real new allocation, not a flake.
func TestClosedLoopSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{Central.String(), func() Config { return headline8x8(Central) }},
		{NoControl.String(), func() Config { return headline8x8(NoControl) }},
		{"buffered", func() Config { c := headline8x8(Central); c.Router = Buffered; return c }},
		{"hierring", func() Config { c := headline8x8(Central); c.Router = HierRing; return c }},
		{Distributed.String(), func() Config { return headline8x8(Distributed) }},
		{"writebacks", func() Config { c := headline8x8(Central); c.Writebacks = true; return c }},
		{"torus", func() Config { c := headline8x8(Central); c.Topo = topology.Torus; return c }},
		{"obs", func() Config {
			c := headline8x8(Central)
			c.Obs = obs.Options{TraceSample: 1, Spatial: true}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			s := New(cfg)
			s.Run(20_000)
			sites := allocs.Measure(func() { s.Run(measuredEpochs * cfg.Params.Epoch) })
			for _, site := range allocs.Unsanctioned(sites, growToPeak) {
				t.Errorf("steady-state cycle allocates outside growToPeak or over its budget: %s", site)
			}
		})
	}
}

// BenchmarkSimStep steps the controlled 8x8 headline system in steady
// state, for quick local iteration on the closed-loop hot path (the
// performance record is perfbench's mesh64_H_central).
func BenchmarkSimStep(b *testing.B) {
	s := New(headline8x8(Central))
	s.Run(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "node-cycles/s")
}
