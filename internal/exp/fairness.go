package exp

import (
	"fmt"

	"nocsim/internal/runner"
	"nocsim/internal/stats"
	"nocsim/internal/workload"
)

func init() {
	register("fairness", fairness)
}

// fairness quantifies §6.2's "Fairness In Throttling" claim with the
// standard slowdown metrics: across congested workloads, the mechanism
// must not worsen maximum slowdown or unfairness (max/min slowdown)
// while improving throughput — the Fig. 11 result, summarised.
func fairness(sc Scale) *Result {
	cats := []string{"H", "HM", "HL"}
	var ws []workload.Workload
	plan := runner.NewPlan(sc)
	for i, cname := range cats {
		cat, _ := workload.CategoryByName(cname)
		w := workload.Generate(cat, 16, sc.Seed+uint64(700+i))
		ws = append(ws, w)
		plan.Add("fairness/"+cname+"/base", runner.Baseline(w, 4, 4, sc), sc.Cycles)
		plan.Add("fairness/"+cname+"/ctl", runner.Controlled(w, 4, 4, sc), sc.Cycles)
	}
	ms := plan.Execute()

	t := &Table{Header: []string{
		"workload", "maxSD base", "maxSD ctl", "unfair base", "unfair ctl",
		"HS base", "HS ctl",
	}}
	var worseMax int
	for i, cname := range cats {
		base, ctl := ms[2*i], ms[2*i+1]
		alone := aloneIPCs(ws[i], 4, sc)
		sdBase := stats.Slowdowns(base.IPC, alone)
		sdCtl := stats.Slowdowns(ctl.IPC, alone)
		if stats.MaxSlowdown(sdCtl) > stats.MaxSlowdown(sdBase)*1.05 {
			worseMax++
		}
		t.Rows = append(t.Rows, []string{
			cname,
			f2(stats.MaxSlowdown(sdBase)), f2(stats.MaxSlowdown(sdCtl)),
			f2(stats.Unfairness(sdBase)), f2(stats.Unfairness(sdCtl)),
			f2(stats.HarmonicSpeedup(sdBase)), f2(stats.HarmonicSpeedup(sdCtl)),
		})
	}
	return &Result{
		ID:    "fairness",
		Title: "Fairness of the mechanism: slowdown metrics with and without throttling",
		Table: t,
		Notes: []string{
			fmt.Sprintf("workloads where max slowdown worsened >5%%: %d of %d", worseMax, len(cats)),
			"paper §6.2/Fig.11: throttling does not unfairly penalise any application",
		},
		Runs: plan.Stats(),
	}
}
