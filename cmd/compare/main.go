// Command compare runs one workload on all three network architectures
// — baseline BLESS, BLESS with the paper's congestion controller, and
// the buffered VC router — and prints a side-by-side comparison of the
// application- and network-level metrics plus the power model's verdict.
//
//	compare -size 8 -workload H -cycles 200000
//	compare -size 16 -workload HM -mapping exp
//	compare -server http://host:8080 -size 8 -workload H
package main

import (
	"flag"
	"fmt"
	"os"

	"nocsim/internal/fleet"
	"nocsim/internal/power"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
	"nocsim/internal/workload"
)

// execute runs the plan, converting a harness panic into an error.
func execute(p *runner.Plan) (ms []sim.Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return p.Execute(), nil
}

func main() {
	var (
		size     = flag.Int("size", 8, "mesh edge length")
		wl       = flag.String("workload", "H", "workload category")
		mapping  = flag.String("mapping", "exp", "L2 mapping: xor | exp | pow")
		meanHops = flag.Float64("mean-hops", 1, "mean hop distance for locality mappings")
		cycles   = flag.Int64("cycles", 150_000, "cycles to simulate")
		seed     = flag.Uint64("seed", 42, "random seed")
		parallel = flag.Int("parallel", 0, "simulations in flight at once (0 = GOMAXPROCS)")
		warmup   = flag.Int64("warmup", 0, "shared uncontrolled warm-start prefix in cycles (0 = cold runs)")
		snapDir  = flag.String("snapdir", "", "checkpoint store directory for warm-start prefixes")
		snapCap  = flag.Int64("snapcap", 0, "checkpoint store byte cap, oldest evicted first (0 = unlimited)")
		server   = flag.String("server", "", "nocd daemon URL; the runs execute remotely through the fleet sweep API")
	)
	flag.Parse()

	cat, ok := workload.CategoryByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "compare: unknown workload category %q\n", *wl)
		os.Exit(1)
	}
	n := *size * *size
	w := workload.Generate(cat, n, *seed)

	sc := runner.DefaultScale()
	sc.Cycles = *cycles
	sc.Epoch = *cycles / 10
	sc.Seed = *seed
	sc.Parallel = *parallel
	sc.Warmup = *warmup
	if *snapDir != "" {
		st, err := snap.NewStore(*snapDir, *snapCap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(1)
		}
		sc.Snapshots = st
	}
	if *server != "" {
		sc.Remote = fleet.NewClient(*server)
	}

	mapKind := sim.XORMap
	switch *mapping {
	case "exp":
		mapKind = sim.ExpMap
	case "pow":
		mapKind = sim.PowMap
	}
	common := []runner.Option{
		runner.WithMapping(mapKind, *meanHops),
		runner.WithSeed(*seed),
	}

	modes := []struct {
		name     string
		cfg      sim.Config
		buffered bool
	}{
		{"BLESS", runner.Baseline(w, *size, *size, sc, common...), false},
		{"BLESS-Throttling", runner.Controlled(w, *size, *size, sc, common...), false},
		{"Buffered", runner.Baseline(w, *size, *size, sc,
			append(common[:2:2], runner.WithRouter(sim.Buffered))...), true},
	}
	// Execute before printing anything: a failed run (the runner panics
	// on infrastructure failures, a failed remote execution included)
	// exits non-zero with a message instead of a partial table.
	plan := runner.NewPlan(sc)
	for _, mode := range modes {
		plan.Add("compare/"+mode.name, mode.cfg, sc.Cycles)
	}
	ms, err := execute(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(1)
	}

	model := power.Default()
	fmt.Printf("%-18s %10s %8s %8s %9s %10s %10s\n",
		"architecture", "IPC/node", "util", "starv", "lat(cyc)", "hops/flit", "power/cyc")
	for i, mode := range modes {
		m := ms[i]
		hops := 0.0
		if m.Net.FlitsEjected > 0 {
			hops = float64(m.Net.LinkTraversals) / float64(m.Net.FlitsEjected)
		}
		pwr := model.Compute(m.Net, n, mode.buffered)
		fmt.Printf("%-18s %10.3f %8.3f %8.3f %9.1f %10.2f %10.1f\n",
			mode.name, m.ThroughputPerNode, m.NetUtilization, m.StarvationRate,
			m.AvgNetLatency, hops, pwr.Power)
	}
}
