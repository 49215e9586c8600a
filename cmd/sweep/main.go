// Command sweep runs the §6.4 parameter-sensitivity studies: it sweeps
// one controller parameter (or the epoch length) over a congested
// workload and prints throughput at each setting. With -grid it
// instead expands a declarative parameter grid over RunSpec fields and
// prints one row per point. With -server every mode executes its runs
// on a nocd daemon instead of in-process, printing the same bytes.
//
//	sweep -param alpha_starve
//	sweep -param epoch -cycles 300000
//	sweep -all
//	sweep -grid "preset=baseline,controlled" -grid "seed=1,2,3"
//	sweep -server http://host:8080 -grid "preset=baseline,controlled" -grid "seed=1,2,3"
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nocsim/internal/exp"
	"nocsim/internal/fleet"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
)

// gridFlags collects repeated -grid "axis=v1,v2,..." declarations.
type gridFlags []runner.Axis

func (g *gridFlags) String() string { return fmt.Sprintf("%d axes", len(*g)) }

func (g *gridFlags) Set(s string) error {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return fmt.Errorf("want axis=v1,v2,..., got %q", s)
	}
	ax := runner.Axis{Name: strings.TrimSpace(name)}
	for _, tok := range strings.Split(vals, ",") {
		ax.Values = append(ax.Values, gridValue(strings.TrimSpace(tok)))
	}
	*g = append(*g, ax)
	return nil
}

// gridValue encodes one axis value token as JSON: numbers and booleans
// pass through, everything else becomes a string.
func gridValue(tok string) json.RawMessage {
	if tok == "true" || tok == "false" {
		return json.RawMessage(tok)
	}
	if _, err := strconv.ParseFloat(tok, 64); err == nil {
		return json.RawMessage(tok)
	}
	b, _ := json.Marshal(tok)
	return b
}

// guard runs fn, converting a harness panic (the runner panics on
// infrastructure failures) into an error so main exits non-zero with a
// message instead of a stack trace.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	fn()
	return nil
}

func main() {
	var (
		param    = flag.String("param", "", "parameter to sweep: alpha_starve beta_starve gamma_starve alpha_throt beta_throt gamma_throt epoch")
		all      = flag.Bool("all", false, "sweep every parameter")
		cycles   = flag.Int64("cycles", 150_000, "cycles per run")
		seed     = flag.Uint64("seed", 42, "random seed")
		parallel = flag.Int("parallel", 0, "simulations in flight at once (0 = GOMAXPROCS)")
		warmup   = flag.Int64("warmup", 0, "shared uncontrolled warm-start prefix in cycles (0 = cold runs)")
		snapDir  = flag.String("snapdir", "", "checkpoint store directory for warm-start prefixes")
		snapCap  = flag.Int64("snapcap", 0, "checkpoint store byte cap, oldest evicted first (0 = unlimited)")

		server   = flag.String("server", "", "nocd daemon URL; runs execute remotely through the fleet sweep API")
		preset   = flag.String("preset", "controlled", "grid base preset: baseline | controlled | static")
		category = flag.String("workload", "H", "grid base workload category")
		router   = flag.String("router", "", "grid base router: bless | buffered | hierring")
		mapping  = flag.String("mapping", "", "grid base mapping: xor | exp | pow")
		size     = flag.Int("size", 4, "grid base mesh edge length")
		label    = flag.String("label", "", "grid base label")
	)
	var grid gridFlags
	flag.Var(&grid, "grid", "axis=v1,v2,... to sweep (repeatable); selects grid mode")
	flag.Parse()

	sc := exp.DefaultScale()
	sc.Cycles = *cycles
	sc.Epoch = *cycles / 10
	sc.Seed = *seed
	sc.Parallel = *parallel
	sc.Warmup = *warmup
	if *snapDir != "" {
		st, err := snap.NewStore(*snapDir, *snapCap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		sc.Snapshots = st
	}
	if *server != "" {
		sc.Remote = fleet.NewClient(*server)
	}

	// Each sweep renders into a buffer and reaches stdout only once it
	// has fully succeeded: a failed run exits non-zero with a message,
	// never with a partial table.
	run := func(id string) {
		d, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "sweep: no driver %q\n", id)
			os.Exit(1)
		}
		var buf bytes.Buffer
		if err := guard(func() { d(sc).Render(&buf) }); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf.Bytes())
	}

	switch {
	case len(grid) > 0:
		runGrid(sc, runner.SweepSpec{
			Base: runner.RunSpec{
				Label: *label, Preset: *preset, Workload: *category,
				Router: *router, Mapping: *mapping, Width: *size, Height: *size,
			},
			Axes: grid,
		})
	case *all:
		run("sens")
		run("epoch")
	case *param == "epoch":
		run("epoch")
	case *param != "":
		var buf bytes.Buffer
		err := guard(func() {
			r, ok := exp.SweepParam(*param, sc)
			if !ok {
				fmt.Fprintf(os.Stderr, "sweep: unknown parameter %q\n", *param)
				os.Exit(1)
			}
			r.Render(&buf)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf.Bytes())
	default:
		fmt.Fprintln(os.Stderr, "sweep: pass -param <name>, -all, or -grid")
		os.Exit(2)
	}
}

// runGrid expands the grid, resolves its points against the command's
// scale and executes them as one plan — in-process, or on the daemon
// when sc.Remote is set — then prints a row per point. Every column,
// the counters hash included, comes from the returned metrics, so the
// local and remote tables are byte-identical; only the cached/fresh
// split, which depends on what the daemon ran before, goes to stderr.
// The table reaches stdout only after the whole plan has succeeded.
func runGrid(sc runner.Scale, spec runner.SweepSpec) {
	points, err := spec.Points(runner.MaxSweepPoints)
	var runs []runner.ResolvedRun
	if err == nil {
		_, runs, err = runner.PlanSpec{Runs: points}.Resolve(sc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	plan := runner.NewPlan(sc)
	for _, r := range runs {
		plan.Add(r.Label, r.Config, r.Cycles)
	}
	var ms []sim.Metrics
	if err := guard(func() { ms = plan.Execute() }); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	stats := plan.Stats()
	cached := 0
	for _, st := range stats {
		if st.Cached {
			cached++
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d points (%d cached, %d fresh)\n", len(ms), cached, len(ms)-cached)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-44s %8s %8s %9s  %s\n", "point", "IPC/node", "util", "lat(cyc)", "counters")
	for i, m := range ms {
		fmt.Fprintf(&buf, "%-44s %8.3f %8.3f %9.1f  %s\n",
			stats[i].Label, m.ThroughputPerNode, m.NetUtilization, m.AvgNetLatency, runner.CountersHash(m)[:12])
	}
	os.Stdout.Write(buf.Bytes())
}
