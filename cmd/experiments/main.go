// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list
//	experiments -run fig5
//	experiments -run fig2a,fig2b,fig2c
//	experiments -all
//	experiments -all -scale paper        # the paper's full parameters
//	experiments -run fig13 -cycles 500000 -maxnodes 4096
//
// Output is aligned text: one block per figure/table with the same
// series/rows the paper plots, plus notes quoting the paper's numbers
// for comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nocsim/internal/exp"
	"nocsim/internal/fleet"
	"nocsim/internal/obs"
	"nocsim/internal/plot"
	"nocsim/internal/runner"
	"nocsim/internal/snap"
)

// runDriver executes one experiment driver, converting a harness panic
// — a failed remote execution against -server, a broken export dir —
// into an error so main exits non-zero with a message instead of a
// stack trace.
func runDriver(d exp.Driver, sc exp.Scale) (r *exp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return d(sc), nil
}

// runJSON is one simulation's report in -json output: the declarative
// label plus the measured wall clock (which the deterministic Result
// JSON deliberately omits).
type runJSON struct {
	Label     string  `json:"label"`
	Nodes     int     `json:"nodes"`
	Cycles    int64   `json:"cycles"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// resultJSON wraps a Result with the per-run and per-experiment wall
// clocks, shadowing the embedded Runs field.
type resultJSON struct {
	*exp.Result
	Runs      []runJSON `json:"runs,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

func wrapJSON(r *exp.Result, elapsed time.Duration) resultJSON {
	out := resultJSON{Result: r, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
	for _, s := range r.Runs {
		out.Runs = append(out.Runs, runJSON{
			Label:     s.Label,
			Nodes:     s.Nodes,
			Cycles:    s.Cycles,
			ElapsedMS: float64(s.Elapsed.Microseconds()) / 1000,
		})
	}
	return out
}

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		runIDs   = flag.String("run", "", "comma-separated experiment IDs")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.String("scale", "default", "default | paper")
		cycles   = flag.Int64("cycles", 0, "override cycles per run")
		epoch    = flag.Int64("epoch", 0, "override controller epoch")
		nwl      = flag.Int("workloads", 0, "override workload batch size")
		maxNodes = flag.Int("maxnodes", 0, "override scaling cap")
		seed     = flag.Uint64("seed", 0, "override seed")
		parallel = flag.Int("parallel", 0, "simulations in flight at once (0 = GOMAXPROCS)")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of text")
		asPlot   = flag.Bool("plot", false, "append an ASCII chart of each figure's series")
		progress = flag.Bool("progress", false, "print a live line per completed run to stderr")

		server = flag.String("server", "", "nocd daemon URL; plain runs execute remotely through the fleet sweep API")

		warmup  = flag.Int64("warmup", 0, "simulate N unmeasured warmup cycles per run before measuring")
		snapDir = flag.String("snapdir", "", "checkpoint store directory; warm-start prefixes are shared through it")

		obsInterval = flag.Int64("obs-interval", 0, "record an interval sample every N cycles (0 = off)")
		obsTrace    = flag.Uint64("obs-trace", 0, "trace the lifecycle of ~1/N packets as Chrome trace JSON (0 = off, 1 = all)")
		obsSpatial  = flag.Bool("obs-spatial", false, "collect per-link and per-node heatmap grids")
		obsEpochs   = flag.Bool("obs-epochs", false, "record the congestion decision ledger (one record per controller epoch)")
		obsDir      = flag.String("obs-dir", "obs", "directory for observability exports and run manifests")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	sc := exp.DefaultScale()
	if *scale == "paper" {
		sc = exp.PaperScale()
	}
	if *cycles > 0 {
		sc.Cycles = *cycles
		if *epoch == 0 {
			sc.Epoch = sc.Cycles / 10
		}
	}
	if *epoch > 0 {
		sc.Epoch = *epoch
	}
	if *nwl > 0 {
		sc.Workloads = *nwl
	}
	if *maxNodes > 0 {
		sc.MaxNodes = *maxNodes
	}
	if *seed > 0 {
		sc.Seed = *seed
	}
	if *parallel > 0 {
		sc.Parallel = *parallel
	}
	sc.Obs = obs.Options{SampleInterval: *obsInterval, TraceSample: *obsTrace, Spatial: *obsSpatial, Epochs: *obsEpochs}
	if sc.Obs.Enabled() {
		sc.ObsDir = *obsDir
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *snapDir != "" {
		st, err := snap.NewStore(*snapDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		sc.Snapshots = st
	}
	if *progress {
		sc.Progress = runner.NewProgress(os.Stderr)
	}
	if *server != "" {
		sc.Remote = fleet.NewClient(*server)
	}

	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *runIDs != "":
		ids = strings.Split(*runIDs, ",")
	default:
		fmt.Fprintln(os.Stderr, "experiments: pass -list, -run <ids> or -all")
		os.Exit(2)
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		d, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		r, err := runDriver(d, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(wrapJSON(r, time.Since(start))); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: encoding:", err)
				os.Exit(1)
			}
		} else {
			r.Render(os.Stdout)
			if *asPlot && len(r.Series) > 0 {
				var ps []plot.Series
				for _, s := range r.Series {
					pts := make([][2]float64, len(s.Points))
					for i, p := range s.Points {
						pts[i] = [2]float64{p.X, p.Y}
					}
					ps = append(ps, plot.Series{Name: s.Name, Points: pts})
				}
				logX := id == "fig3" || id == "fig13" || id == "fig14" || id == "fig15" || id == "fig16"
				if err := plot.Render(os.Stdout, plot.Config{
					XLabel: r.XLabel, YLabel: r.YLabel, LogX: logX,
				}, ps...); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: plotting:", err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
