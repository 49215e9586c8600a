package exp

import (
	"fmt"

	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/workload"
)

func init() {
	register("threads", threadedWorkloads)
}

// threadedWorkloads realises §7's "Traffic Engineering" motivation:
// multithreaded applications have heavily regional communication that
// forms hot spots. Nodes are grouped into square thread blocks whose
// misses are serviced within the group; we then measure what source
// throttling buys over the baseline.
func threadedWorkloads(sc Scale) *Result {
	const k = 8
	groups := workload.QuadrantGroups(k, k, 4)
	cat, _ := workload.CategoryByName("H")
	w := workload.Generate(cat, k*k, sc.Seed+900)

	regional := []runner.Option{
		runner.WithGroups(groups),
		runner.WithSeed(sc.Seed + 900),
	}
	variants := []struct {
		name string
		cfg  sim.Config
	}{
		{"baseline BLESS", runner.Baseline(w, k, k, sc, regional...)},
		{"+ throttling", runner.Controlled(w, k, k, sc, regional...)},
	}
	plan := runner.NewPlan(sc)
	for i, v := range variants {
		plan.Add(fmt.Sprintf("threads/%d", i), v.cfg, sc.Cycles)
	}
	ms := plan.Execute()

	t := &Table{Header: []string{"config", "IPC/node", "utilization", "starvation", "latency"}}
	for i, v := range variants {
		m := ms[i]
		t.Rows = append(t.Rows, []string{
			v.name, f2(m.ThroughputPerNode), f2(m.NetUtilization),
			f2(m.StarvationRate), f1(m.AvgNetLatency),
		})
	}
	base, thr := ms[0], ms[1]

	return &Result{
		ID:    "threads",
		Title: "Multithreaded-style regional traffic (8x8, 4x4 thread groups)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("throttling %+.1f%% vs baseline",
				stats.PercentGain(base.SystemThroughput, thr.SystemThroughput)),
			"§7: regional hot-spots motivate traffic engineering on top of throttling",
		},
		Runs: plan.Stats(),
	}
}
