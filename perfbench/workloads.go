package main

import "nocsim/internal/sim"

// workloadDef registers one workload with the reason it exists and how
// many child processes a run spreads its timed phase over.
type workloadDef struct {
	why      string
	children int
	make     func(seed uint64, dir string) bench
}

// workloads are the benchmark's named input sets. Load comes from one
// process with at most GOMAXPROCS busy threads and, for the daemon
// workload, one closed-loop client connection.
var workloads = map[string]workloadDef{
	"mesh64_H_central": {
		why: "The paper's headline system: an 8x8 BLESS mesh of heavy apps under the central controller, " +
			"where congestion and throttling act. Closed-loop profile is bless.Step ~73%, cpu.Core.Step ~19%, " +
			"core.Monitor.Tick ~5%. runner, snap, serve and fleet do no work: the bypass workload for their changes.",
		children: 12,
		make:     newMesh,
	},
	"grid256_HML_warm": {
		why: "The sweep -warmup -snapdir path in-process: one runner Plan per op over a 16x16 HML grid, " +
			"routers {buffered, hierring} x presets {baseline, controlled, static 0.1, static 0.3}, with a shared " +
			"warm-up prefix in a fresh checkpoint store. The only workload where the alternative fabrics, the " +
			"checkpoint codec and the warm-fork executor do real work; bless does none. One point per plan is " +
			"re-run storeless (still warm-forked) as a check of the store and executor.",
		children: 4,
		make:     newGrid,
	},
	"nocd_sweeps": {
		why: "A coordinator daemon and its peer on loopback with nocd's default flags and checkpoint stores; one " +
			"closed-loop client repeats the CI daemon smokes' pattern per fresh HML grid of {4x4, 8x8} x " +
			"{baseline, controlled}: submit it (write), submit it again, all cached (read), extend its 8x8 " +
			"controlled run. serve, fleet, CacheKey, encoding/json and net/http dominate and idle elsewhere.",
		children: 8,
		make:     newNocd,
	},
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload (BENCHMARK.json holds their bounds). Rates and setup_s are
// given at the host-speed reference's nominal speed.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"node_cycles_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// base is the state every workload shares: its work record and tracer.
type base struct {
	work
	tr *tracer
}

func newBase() base { return base{tr: newTracer(false)} }

func (b *base) baseOf() *base { return b }

// addMetrics accumulates a finished simulation. ncycles is the
// node-cycles the benchmark stepped for it; its counters cover all of
// its cycles, a restored prefix included.
func (w *work) addMetrics(m sim.Metrics, ncycles int64) {
	w.nodeCycles += ncycles
	w.coveredNC += m.Cycles * int64(m.Nodes)
	w.flitHops += m.Net.LinkTraversals
	w.deflections += m.Net.Deflections
	for _, r := range m.Retired {
		w.retired += r
	}
	w.misses += m.Misses
	w.ipcSum += m.ThroughputPerNode
	w.utilSum += m.NetUtilization
	w.starveSum += m.StarvationRate
	w.simsN++
}
