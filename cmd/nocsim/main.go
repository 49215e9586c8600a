// Command nocsim runs one closed-loop CMP+NoC simulation from flags and
// prints a metrics report: the quickest way to poke at the system.
//
// Examples:
//
//	nocsim -size 4 -workload H -cycles 200000
//	nocsim -size 8 -workload HML -controller central
//	nocsim -size 16 -workload H -mapping exp -router buffered
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"nocsim/internal/app"
	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/topology"
	"nocsim/internal/workload"
)

func main() {
	var (
		size       = flag.Int("size", 4, "mesh edge length (size x size nodes)")
		topo       = flag.String("topo", "mesh", "topology: mesh | torus")
		router     = flag.String("router", "bless", "router: bless | buffered | hierring")
		wl         = flag.String("workload", "HML", "workload category (H M L HML HM HL ML), 'uniform:<app>' or 'single:<app>'")
		controller = flag.String("controller", "none", "controller: none | central | static | distributed")
		staticRate = flag.Float64("static-rate", 0.5, "rate for -controller static")
		mapping    = flag.String("mapping", "xor", "L2 mapping: xor | exp | pow")
		meanHops   = flag.Float64("mean-hops", 1, "mean hop distance for locality mappings")
		cycles     = flag.Int64("cycles", 200_000, "cycles to simulate")
		epoch      = flag.Int64("epoch", 0, "controller epoch (default cycles/10)")
		seed       = flag.Uint64("seed", 42, "random seed")
		verbose    = flag.Bool("v", false, "per-node detail")
		writebacks = flag.Bool("writebacks", false, "model store traffic and dirty-eviction writebacks")

		obsInterval = flag.Int64("obs-interval", 0, "record an interval sample every N cycles (0 = off)")
		obsTrace    = flag.Uint64("obs-trace", 0, "trace the lifecycle of ~1/N packets as Chrome trace JSON (0 = off, 1 = all)")
		obsSpatial  = flag.Bool("obs-spatial", false, "collect per-link and per-node heatmap grids")
		obsEpochs   = flag.Bool("obs-epochs", false, "record the congestion decision ledger (one record per controller epoch)")
		obsDir      = flag.String("obs-dir", "obs", "directory for observability exports and the run manifest")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *epoch == 0 {
		*epoch = *cycles / 10
		if *epoch < 1000 {
			*epoch = 1000
		}
	}

	n := *size * *size
	w, err := buildWorkload(*wl, n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}

	// Config assembly flows through the runner presets (nocvet's
	// rawconfig rule): Baseline supplies the Table 2 defaults, the
	// flags become With* options.
	sc := runner.Scale{Cycles: *cycles, Epoch: *epoch, Seed: *seed}
	opts := []runner.Option{runner.WithSeed(*seed)}
	if *topo == "torus" {
		opts = append(opts, runner.WithTopo(topology.Torus))
	}
	if *writebacks {
		opts = append(opts, runner.WithWritebacks())
	}
	switch *router {
	case "bless":
	case "buffered":
		opts = append(opts, runner.WithRouter(sim.Buffered))
	case "hierring":
		opts = append(opts, runner.WithRouter(sim.HierRing))
	default:
		fmt.Fprintf(os.Stderr, "nocsim: unknown router %q\n", *router)
		os.Exit(1)
	}
	switch *controller {
	case "none":
	case "central":
		opts = append(opts, runner.WithController(sim.Central))
	case "static":
		opts = append(opts, runner.WithStaticUniform(*staticRate))
	case "distributed":
		opts = append(opts, runner.WithController(sim.Distributed))
	default:
		fmt.Fprintf(os.Stderr, "nocsim: unknown controller %q\n", *controller)
		os.Exit(1)
	}
	switch *mapping {
	case "xor":
	case "exp":
		opts = append(opts, runner.WithMapping(sim.ExpMap, *meanHops))
	case "pow":
		opts = append(opts, runner.WithMapping(sim.PowMap, *meanHops))
	default:
		fmt.Fprintf(os.Stderr, "nocsim: unknown mapping %q\n", *mapping)
		os.Exit(1)
	}

	obsOpt := obs.Options{SampleInterval: *obsInterval, TraceSample: *obsTrace, Spatial: *obsSpatial, Epochs: *obsEpochs}
	if obsOpt.Enabled() {
		opts = append(opts, runner.WithObs(obsOpt))
	}

	cfg := runner.Baseline(w, *size, *size, sc, opts...)
	start := time.Now()
	s := sim.New(cfg)
	s.Run(*cycles)
	elapsed := time.Since(start)
	report(s, w, *verbose)
	if obsOpt.Enabled() {
		label := fmt.Sprintf("nocsim-%dx%d-%s-%s", *size, *size, *router, *wl)
		if err := runner.ExportObs(s, *obsDir, label, cfg, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability exports written to %s/%s.*\n", *obsDir, label)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
	}
}

func buildWorkload(spec string, n int, seed uint64) (workload.Workload, error) {
	if len(spec) > 8 && spec[:8] == "uniform:" {
		p, ok := app.ByName(spec[8:])
		if !ok {
			return workload.Workload{}, fmt.Errorf("unknown application %q", spec[8:])
		}
		return workload.Uniform(p, n), nil
	}
	if len(spec) > 7 && spec[:7] == "single:" {
		p, ok := app.ByName(spec[7:])
		if !ok {
			return workload.Workload{}, fmt.Errorf("unknown application %q", spec[7:])
		}
		return workload.Single(p, n, n/2), nil
	}
	cat, ok := workload.CategoryByName(spec)
	if !ok {
		return workload.Workload{}, fmt.Errorf("unknown workload category %q", spec)
	}
	return workload.Generate(cat, n, seed), nil
}

func report(s *sim.Sim, w workload.Workload, verbose bool) {
	m := s.Metrics()
	fmt.Printf("cycles                 %d\n", m.Cycles)
	fmt.Printf("active nodes           %d / %d\n", m.ActiveNodes, m.Nodes)
	fmt.Printf("system throughput      %.3f (sum IPC)\n", m.SystemThroughput)
	fmt.Printf("throughput per node    %.3f IPC\n", m.ThroughputPerNode)
	fmt.Printf("network utilization    %.3f\n", m.NetUtilization)
	fmt.Printf("avg net latency        %.1f cycles\n", m.AvgNetLatency)
	fmt.Printf("avg queue latency      %.1f cycles\n", m.Net.AvgQueueLatency())
	fmt.Printf("starvation rate        %.3f\n", m.StarvationRate)
	fmt.Printf("deflection rate        %.3f\n", m.Net.DeflectionRate())
	fmt.Printf("L1 misses              %d (%d local-slice)\n", m.Misses, m.LocalMisses)
	if m.Writebacks > 0 {
		fmt.Printf("writebacks             %d\n", m.Writebacks)
	}
	fmt.Printf("flits injected/ejected %d / %d\n", m.Net.FlitsInjected, m.Net.FlitsEjected)
	fmt.Printf("packets delivered      %d\n", m.Net.PacketsDelivered)
	if m.ControlPackets > 0 {
		fmt.Printf("control packets        %d\n", m.ControlPackets)
	}
	if ds := s.Decisions(); len(ds) > 0 {
		congested := 0
		for _, d := range ds {
			if d.Congested {
				congested++
			}
		}
		fmt.Printf("controller epochs      %d (%d congested)\n", len(ds), congested)
	}
	if !verbose {
		return
	}
	fmt.Println()
	type row struct {
		node int
		name string
		ipc  float64
		ipf  float64
	}
	var rows []row
	for i := range m.IPC {
		if w.Apps[i] == nil {
			continue
		}
		rows = append(rows, row{i, w.Apps[i].Name, m.IPC[i], m.IPF[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].node < rows[j].node })
	fmt.Printf("%4s  %-16s %8s %10s\n", "node", "app", "IPC", "IPF")
	for _, r := range rows {
		fmt.Printf("%4d  %-16s %8.3f %10.1f\n", r.node, r.name, r.ipc, r.ipf)
	}
}
