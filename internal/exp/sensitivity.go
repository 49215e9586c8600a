package exp

import (
	"fmt"

	"nocsim/internal/core"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/topology"
	"nocsim/internal/workload"
)

func init() {
	register("sens", sensitivity)
	register("epoch", epochSweep)
	register("dist", distributedVsCentral)
	register("torus", torusComparison)
}

// sensWorkload is the congested workload every sweep below shares.
func sensWorkload(sc Scale) workload.Workload {
	cat, _ := workload.CategoryByName("HM")
	return workload.Generate(cat, 16, sc.Seed+640)
}

// sweepSpec names one §6.4 parameter sweep.
type sweepSpec struct {
	name   string
	values []float64
	apply  func(*core.Params, float64)
}

var sweepSpecs = []sweepSpec{
	{"alpha_starve", []float64{0.2, 0.3, 0.4, 0.6, 0.8},
		func(p *core.Params, v float64) { p.AlphaStarve = v }},
	{"beta_starve", []float64{0.0, 0.05, 0.1, 0.2},
		func(p *core.Params, v float64) { p.BetaStarve = v }},
	{"gamma_starve", []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		func(p *core.Params, v float64) { p.GammaStarve = v }},
	{"alpha_throt", []float64{0.5, 0.7, 0.9, 1.1, 1.3},
		func(p *core.Params, v float64) { p.AlphaThrot = v }},
	{"beta_throt", []float64{0.0, 0.1, 0.2, 0.25, 0.35},
		func(p *core.Params, v float64) { p.BetaThrot = v }},
	{"gamma_throt", []float64{0.55, 0.65, 0.75, 0.85, 0.95},
		func(p *core.Params, v float64) { p.GammaThrot = v }},
}

// addSweep declares one parameter sweep's runs on the plan and returns
// a closure that assembles the Series once the plan has executed.
func addSweep(plan *runner.Plan, sc Scale, spec sweepSpec) func([]sim.Metrics) Series {
	w := sensWorkload(sc)
	base := sc.Params()
	first := plan.Len()
	for _, v := range spec.values {
		p := base
		spec.apply(&p, v)
		plan.Add(fmt.Sprintf("sens/%s=%g", spec.name, v),
			runner.Controlled(w, 4, 4, sc, runner.WithParams(p)), sc.Cycles)
	}
	return func(ms []sim.Metrics) Series {
		s := Series{Name: spec.name}
		for i, v := range spec.values {
			s.Points = append(s.Points, Point{X: v, Y: ms[first+i].SystemThroughput})
		}
		return s
	}
}

// SweepParam runs the §6.4 sweep for one named controller parameter.
func SweepParam(name string, sc Scale) (*Result, bool) {
	for _, spec := range sweepSpecs {
		if spec.name == name {
			plan := runner.NewPlan(sc)
			mk := addSweep(plan, sc, spec)
			ms := plan.Execute()
			return &Result{
				ID:     "sens:" + name,
				Title:  fmt.Sprintf("Sensitivity to %s (§6.4, congested HM workload, 4x4)", name),
				XLabel: name,
				YLabel: "system throughput (sum IPC)",
				Series: []Series{mk(ms)},
				Runs:   plan.Stats(),
			}, true
		}
	}
	return nil, false
}

// sensitivity reproduces §6.4: system throughput of a congested
// workload as each of the six controller parameters is swept around the
// paper's chosen value. All six sweeps execute as one plan.
func sensitivity(sc Scale) *Result {
	r := &Result{
		ID:     "sens",
		Title:  "Sensitivity to algorithm parameters (§6.4, congested HM workload, 4x4)",
		XLabel: "parameter value",
		YLabel: "system throughput (sum IPC)",
	}
	plan := runner.NewPlan(sc)
	var mks []func([]sim.Metrics) Series
	for _, spec := range sweepSpecs {
		mks = append(mks, addSweep(plan, sc, spec))
	}
	ms := plan.Execute()
	for _, mk := range mks {
		r.Series = append(r.Series, mk(ms))
	}
	r.Runs = plan.Stats()
	r.Notes = append(r.Notes,
		"paper §6.4: optimum near alpha_starve=0.4, beta_starve=0.0, gamma_starve=0.7, alpha_throt=0.9, beta_throt=0.20, gamma_throt=0.75")
	return r
}

// epochSweep reproduces §6.4's throttling-epoch discussion: shorter
// epochs react faster (small gain, more overhead); very long epochs
// stop tracking application phases and lose performance.
func epochSweep(sc Scale) *Result {
	w := sensWorkload(sc)
	var epochs []int64
	for _, frac := range []int64{100, 30, 10, 3, 1} {
		e := sc.Cycles / frac
		if e < 1000 {
			e = 1000
		}
		epochs = append(epochs, e)
	}
	plan := runner.NewPlan(sc)
	for _, e := range epochs {
		p := sc.Params()
		p.Epoch = e
		plan.Add(fmt.Sprintf("epoch/%d", e),
			runner.Controlled(w, 4, 4, sc, runner.WithParams(p)), sc.Cycles)
	}
	ms := plan.Execute()
	s := Series{Name: "epoch length"}
	for i, e := range epochs {
		s.Points = append(s.Points, Point{X: float64(e), Y: ms[i].SystemThroughput})
	}
	return &Result{
		ID:     "epoch",
		Title:  "Sensitivity to throttling epoch length (§6.4)",
		XLabel: "epoch (cycles)",
		YLabel: "system throughput (sum IPC)",
		Series: []Series{s},
		Notes:  []string{"paper: 1k-cycle epochs gain 3-5% over 100k; 1M-cycle epochs lose responsiveness"},
		Runs:   plan.Stats(),
	}
}

// distributedVsCentral reproduces §6.6: the central, IPF-aware
// controller versus the distributed congestion-bit mechanism on
// congested workloads.
func distributedVsCentral(sc Scale) *Result {
	t := &Table{Header: []string{"workload", "baseline", "distributed", "central", "dist gain %", "central gain %"}}
	var ws []workload.Workload
	plan := runner.NewPlan(sc)
	for i := 0; i < 5; i++ {
		cat := workload.Categories[i%2] // H and M: congested mixes
		w := workload.Generate(cat, 16, sc.Seed+uint64(660+i))
		ws = append(ws, w)
		plan.Add(fmt.Sprintf("dist/w%d/base", i), runner.Baseline(w, 4, 4, sc), sc.Cycles)
		plan.Add(fmt.Sprintf("dist/w%d/distributed", i),
			runner.Baseline(w, 4, 4, sc, runner.WithController(sim.Distributed)), sc.Cycles)
		plan.Add(fmt.Sprintf("dist/w%d/central", i), runner.Controlled(w, 4, 4, sc), sc.Cycles)
	}
	ms := plan.Execute()
	var distGains, centGains []float64
	for i, w := range ws {
		base := ms[3*i].SystemThroughput
		dist := ms[3*i+1].SystemThroughput
		cent := ms[3*i+2].SystemThroughput
		dg := stats.PercentGain(base, dist)
		cg := stats.PercentGain(base, cent)
		distGains = append(distGains, dg)
		centGains = append(centGains, cg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s#%d", w.Category, i), f2(base), f2(dist), f2(cent), f1(dg), f1(cg),
		})
	}
	return &Result{
		ID:    "dist",
		Title: "Centralized vs distributed coordination (§6.6)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("avg gain: distributed %.1f%%, central %.1f%%", stats.Mean(distGains), stats.Mean(centGains)),
			"paper: the TCP-like distributed mechanism is far less effective because it is not selective",
		},
		Runs: plan.Stats(),
	}
}

// torusComparison reproduces the §6.3 note: the torus shows the same
// scaling trends with roughly 10% higher throughput than the mesh.
func torusComparison(sc Scale) *Result {
	cat, _ := workload.CategoryByName("H")
	sizes := []int{4, 8}
	plan := runner.NewPlan(sc)
	for _, k := range sizes {
		nodes := k * k
		w := workload.Generate(cat, nodes, sc.Seed+uint64(nodes)*5)
		for _, topo := range []topology.Kind{topology.Mesh, topology.Torus} {
			plan.Add(fmt.Sprintf("torus/%d/%v", nodes, topo),
				runner.Baseline(w, k, k, sc,
					runner.WithTopo(topo),
					runner.WithMapping(sim.ExpMap, 1),
					runner.WithSeed(sc.Seed+uint64(nodes)*5)), sc.Cycles)
		}
	}
	ms := plan.Execute()
	t := &Table{Header: []string{"nodes", "mesh IPC/node", "torus IPC/node", "torus gain %"}}
	for i, k := range sizes {
		nodes := k * k
		mesh := ms[2*i].ThroughputPerNode
		torus := ms[2*i+1].ThroughputPerNode
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nodes), f2(mesh), f2(torus), f1(stats.PercentGain(mesh, torus)),
		})
	}
	return &Result{
		ID:    "torus",
		Title: "Mesh vs torus (§6.3 note)",
		Table: t,
		Notes: []string{"paper: torus yields ~10% throughput improvement, same trends"},
		Runs:  plan.Stats(),
	}
}
