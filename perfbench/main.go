// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed host-time budget, checks every
// simulated result, and prints one metric per line followed by a JSON
// summary:
//
//	perfbench -workload mesh64_H_central -seed 1 -seconds 25 -trace 0
//
// Workloads (see workloads.go for why each exists):
//
//	mesh64_H_central  fresh 8x8 BLESS simulations, H apps, central controller
//	grid256_HML_warm  warm-forked 16x16 sweep plans over buffered and hierring
//	nocd_sweeps       a coordinator and a peer daemon on loopback, one client
//
// A run spreads its timed phase over fresh child processes of the same
// binary, one after another. Rates and set-up times are given at the
// nominal speed of a host-speed reference kernel timed between stretches
// of ops (hostref.go); the host times are printed as raw lines. With
// -trace 0 the summary carries the end-to-end metrics; with -trace 1 every other child is traced (spans
// around the benchmark's calls into each layer, plus a CPU profile for
// the layers inside Sim.Step) and the summary carries the per-layer
// metrics of layers.go, with the tracing overhead against the untraced
// children. Traces are written as Chrome trace JSON under .bench_build.
// -steady N runs every workload (or only -workload, when given) N times
// in alternating order and prints each metric's median, quartiles and
// spread against its bound in BENCHMARK.json.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"nocsim/internal/rng"
)

// bench is one workload. setup does the one-time work (including one
// untimed warm-up op), op runs timed op i, verify re-checks sampled ops
// outside the timed phase and returns the indices of ops that failed.
type bench interface {
	setup() error
	op(i int) error
	verify() []int
	report(r *report, w work, traced bool)
	baseOf() *base
	close()
}

// work is the deterministic work timed ops accumulate. A speed claim is
// only read against an unchanged work record.
type work struct {
	ops, points, nodeCycles           int64
	coveredNC                         int64 // node-cycles the simulations' counters cover
	flitHops, deflections             int64
	retired, misses, blobBytes        int64
	ipcSum, utilSum, starveSum, simsN float64
}

// report collects one child's numbers: per-layer metrics, counts the
// parent sums, and per-op samples the parent pools.
type report struct {
	layer   map[string]float64
	counts  map[string]float64
	samples map[string][]float64
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics in traced child processes")
	steady := flag.Int("steady", 0, "run every workload (or only -workload) this many times in alternating order and report spreads")
	child := flag.Bool("child", false, "run one child process of a run (internal)")
	flag.Parse()

	var err error
	switch {
	case *steady > 0:
		err = runSteady(*name, *steady, *seconds)
	case *child:
		err = runChild(*name, *seed, *seconds, *trace == 1)
	default:
		if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		err = runParent(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// workDir is where runs keep scratch stores and traces, inside the
// checkout and ignored by git.
const workDir = ".bench_build/perfbench"

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the JSON summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is what one child process hands its parent on its last
// line.
type childResult struct {
	Traced      bool                 `json:"traced"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	Elapsed     float64              `json:"elapsed_s"`
	NormElapsed float64              `json:"norm_elapsed_s"`
	RefMS       []float64            `json:"ref_ms"` // the kernel's times, the first just after set-up
	RSSMB       float64              `json:"peak_rss_mb"`
	Counts      map[string]float64   `json:"counts"`
	Layer       map[string]float64   `json:"layer"`
	Samples     map[string][]float64 `json:"samples"`
}

// readyLine is what a child prints once its set-up is done; the parent
// times set-up from process start to this line.
const readyLine = "perfbench-ready"

// runChild sets the workload up once, announces readiness, runs ops
// back to back for secs seconds (traced or not), verifies, and prints
// its childResult.
func runChild(name string, seed uint64, secs float64, traced bool) error {
	def, ok := workloads[name]
	if !ok {
		return fmt.Errorf("perfbench: unknown workload %q", name)
	}
	scratch, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	b := def.make(seed, scratch)
	defer b.close()
	if err := b.setup(); err != nil {
		return fmt.Errorf("perfbench: %s set-up: %w", name, err)
	}
	fmt.Println(readyLine)

	ref, err := newHostRef()
	if err != nil {
		return err
	}
	defer ref.close()
	r := &report{layer: map[string]float64{}, counts: map[string]float64{}, samples: map[string][]float64{}}
	tr := b.baseOf().tr
	tr.on = traced
	var prof *cpuProfile
	m0 := readMem()
	if traced {
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	// Stretches of refEvery seconds of back-to-back ops alternate with
	// the host-speed reference; el is the ops' host time and normEl the
	// same time at the reference's nominal speed, each stretch scaled by
	// the kernel runs on either side of it.
	prev := ref.measure()
	var attempted int64
	var el, normEl float64
	failed := map[int]bool{}
	start := now()
	for since(start) < secs {
		t := now()
		for since(t) < refEvery && since(start) < secs {
			i := int(attempted)
			attempted++
			if err := b.op(i); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", name, i, err)
				failed[i] = true
			}
		}
		stretch := since(t)
		cur := ref.measure()
		el += stretch
		normEl += normalize(stretch, prev, cur)
		prev = cur
	}
	w := b.baseOf().work
	if traced {
		buckets, err := prof.stop()
		if err != nil {
			return err
		}
		layerMetrics(r, buckets, w, m0, readMem())
	}
	tr.on = false
	for _, i := range b.verify() {
		failed[i] = true
	}
	b.report(r, w, traced)
	if traced {
		if err := tr.write(filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", name, seed))); err != nil {
			return fmt.Errorf("perfbench: writing trace: %w", err)
		}
	}
	workCounts(r, w)
	out, err := json.Marshal(childResult{
		Traced: traced, Attempted: attempted, Failed: int64(len(failed)), Elapsed: el, NormElapsed: normEl,
		RefMS: ref.ms, RSSMB: peakRSSMB() - refBytes/(1<<20), Counts: r.counts, Layer: r.layer, Samples: r.samples,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runParent runs the workload's timed phase across fresh child
// processes, one after another, as many as the workload's children, and
// prints the pooled metrics. Host speed differs between processes and
// drifts, the same work running up to half again as long in a slow spell
// and a fifth longer for minutes at a time. So workloads with a cheap
// set-up run more children; rates are whole-phase, the untraced
// children's work over their summed timed seconds, every spell weighed
// by its length; and times are given at the nominal speed of the
// host-speed reference (hostref.go), with the host times printed beside
// them. Each child pays the one-time set-up once, so setup_s is the
// median of theirs, each scaled by the reference run just after it.
// With traced set, every other child is traced: the per-layer numbers
// come from the traced ones, and the rate difference to the untraced
// ones is the tracing overhead.
func runParent(name string, seed uint64, seconds float64, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	children := workloads[name].children
	var setupS, normSetup, rss, ncRate, ptRate, refMS []float64
	var untraced, tracedRes []childResult
	for k := 0; k < children; k++ {
		tr := traced && k%2 == 1
		cs := rng.New(seed).Split("child").SplitIndex(k).Uint64()
		res, setup, err := runOneChild(exe, name, cs, seconds/float64(children), tr)
		if err != nil {
			return fmt.Errorf("perfbench: %s child %d: %w", name, k, err)
		}
		setupS = append(setupS, setup)
		normSetup = append(normSetup, normalize(setup, res.RefMS[0], res.RefMS[0]))
		rss = append(rss, res.RSSMB)
		refMS = append(refMS, quantile(res.RefMS, 0.5))
		if tr {
			tracedRes = append(tracedRes, res)
		} else {
			ncRate = append(ncRate, res.Counts["node_cycles"]/res.Elapsed)
			ptRate = append(ptRate, res.Counts["points"]/res.Elapsed)
			untraced = append(untraced, res)
		}
	}

	// The end-to-end times are given at the reference's nominal host
	// speed; the host times they come from are printed as raw lines.
	pooled := pool(untraced)
	e2e := map[string]float64{
		"setup_s":           quantile(normSetup, 0.5),
		"node_cycles_per_s": pooled.Counts["node_cycles"] / pooled.NormElapsed,
		"points_per_s":      pooled.Counts["points"] / pooled.NormElapsed,
		"peak_rss_mb":       quantile(rss, 0.5),
	}
	raw := map[string]float64{
		"setup_s":           quantile(setupS, 0.5),
		"node_cycles_per_s": pooled.Counts["node_cycles"] / pooled.Elapsed,
		"points_per_s":      pooled.Counts["points"] / pooled.Elapsed,
	}
	all := append(append([]childResult(nil), untraced...), tracedRes...)
	var attempted, failed int64
	for _, c := range all {
		attempted += c.Attempted
		failed += c.Failed
	}

	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d seconds %g trace %d children %d gomaxprocs %d\n", name, seed, seconds, boolInt(traced), children, runtime.GOMAXPROCS(0))
	fmt.Printf("e2e failed_op_share %.6f fraction (%d of %d ops)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, m := range endToEnd {
		fmt.Printf("e2e %s %.6g %s\n", m.name, e2e[m.name], m.unit)
		if !traced {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	for _, m := range endToEnd {
		if v, ok := raw[m.name]; ok {
			fmt.Printf("raw %s %.6g %s (host time)\n", m.name, v, m.unit)
		}
	}
	fmt.Printf("raw host_ref_ms %.6g ms (median of children; nominal %g)\n", quantile(refMS, 0.5), refNominalMS)
	for _, l := range latencies {
		if xs := pooled.Samples[l.sample]; len(xs) > 0 {
			fmt.Printf("e2e %s %.6g ms (%d samples)\n", l.name, quantile(xs, l.q), len(xs))
		}
	}
	printSorted("count", pooled.Counts)
	sims := simStats(pooled)
	printSorted("sim", sims)
	if traced {
		lay := pool(tracedRes).Layer
		ratePts := func(cs []childResult) float64 { p := pool(cs); return p.Counts["points"] / p.NormElapsed }
		lay["bench.tracing_overhead_pct"] = (ratePts(untraced)/ratePts(tracedRes) - 1) * 100
		for _, l := range layers {
			v := lay[l.name]
			fmt.Printf("layer %s %.6g %s  moves %s; shows in %s; absent in %s\n", l.name, v, l.unit, l.moves, l.shows, l.absent)
			res.Metrics[l.name] = metric{v, l.unit}
		}
	}
	detail, err := json.Marshal(map[string]any{"e2e": e2e, "counts": pooled.Counts, "sims": sims,
		"child_setup_s": setupS, "child_node_cycles_per_s": ncRate, "child_points_per_s": ptRate,
		"child_ref_ms": refMS, "raw": raw})
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n", detail)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// latencies are the request latencies printed beside the end-to-end
// metrics, from per-op samples the workloads record. Only nocd_sweeps
// has requests, and the summary's metrics must be the same on every
// workload, so they are printed lines rather than summary metrics; the
// steadiness report holds them to the bounds given here. failed_op_share
// is printed the same way: the summary carries it as failed over
// attempted, and a share that reads 0 on correct code has no spread to
// bound.
var latencies = []struct {
	name, sample string
	q, bound     float64
}{
	{"hit_sweep_p50_ms", "hit_sweep_ms", 0.5, 0.1},
	{"hit_sweep_p90_ms", "hit_sweep_ms", 0.9, 0.25},
	{"extend_p50_ms", "extend_ms", 0.5, 0.25},
}

// runOneChild runs one child process to completion and returns its
// result and its set-up time: process start to its ready line.
func runOneChild(exe, name string, seed uint64, secs float64, traced bool) (childResult, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(secs*float64(time.Second))+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(traced)))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childResult{}, 0, err
	}
	start := now()
	if err := cmd.Start(); err != nil {
		return childResult{}, 0, err
	}
	setup := -1.0
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine && setup < 0:
			setup = since(start)
		case strings.HasPrefix(line, "{"):
			last = line
		default:
			fmt.Println(line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return childResult{}, 0, err
	}
	if setup < 0 || last == "" {
		return childResult{}, 0, fmt.Errorf("child printed no result")
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return childResult{}, 0, fmt.Errorf("decoding child result: %w", err)
	}
	return res, setup, nil
}

// pool merges children: counts and elapsed time add up, samples are
// concatenated, and layer metrics are averaged.
func pool(cs []childResult) childResult {
	out := childResult{Counts: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string][]float64{}}
	for _, c := range cs {
		out.Elapsed += c.Elapsed
		out.NormElapsed += c.NormElapsed
		for k, v := range c.Counts {
			out.Counts[k] += v
		}
		for k, v := range c.Samples {
			out.Samples[k] = append(out.Samples[k], v...)
		}
		for k, v := range c.Layer {
			out.Layer[k] += v / float64(len(cs))
		}
	}
	return out
}

// simStats are the simulated statistics of the timed ops, printed
// beside the host metrics so a speed-only change visibly leaves them
// identical, plus the spread of host speed across fresh instances.
func simStats(c childResult) map[string]float64 {
	out := map[string]float64{}
	if n := c.Counts["sims"]; n > 0 {
		out["mean_ipc_per_node"] = c.Counts["ipc_sum"] / n
		out["mean_net_utilization"] = c.Counts["util_sum"] / n
		out["mean_starvation_rate"] = c.Counts["starve_sum"] / n
	}
	if xs := c.Samples["inst_ns_per_node_cycle"]; len(xs) > 1 {
		out["instance_spread"] = instanceSpread(xs)
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printSorted(kind string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.10g\n", kind, k, m[k])
	}
}

// workCounts reports the deterministic work of the timed ops; the
// parent sums them across children.
func workCounts(r *report, w work) {
	for k, v := range map[string]int64{
		"ops": w.ops, "points": w.points, "node_cycles": w.nodeCycles, "covered_node_cycles": w.coveredNC,
		"flit_hops": w.flitHops, "deflections": w.deflections, "retired": w.retired, "misses": w.misses,
		"blob_bytes": w.blobBytes,
	} {
		r.counts[k] = float64(v)
	}
	r.counts["ipc_sum"] = w.ipcSum
	r.counts["util_sum"] = w.utilSum
	r.counts["starve_sum"] = w.starveSum
	r.counts["sims"] = w.simsN
}

// layerMetrics fills the layer-independent per-layer metrics of a
// traced phase: profile self time per node-cycle (or per op for the
// standard-library layers), GC share and allocation rates.
func layerMetrics(r *report, buckets map[string]float64, w work, m0, m1 memSnap) {
	perNC := func(ns float64) float64 {
		if w.nodeCycles == 0 {
			return 0
		}
		return ns / float64(w.nodeCycles)
	}
	perOpMS := func(ns float64) float64 {
		if w.ops == 0 {
			return 0
		}
		return ns / 1e6 / float64(w.ops)
	}
	for _, l := range []string{"bless", "buffered", "hierring", "noc", "topology", "cpu", "cache", "trace", "rng", "core", "sim", "obs"} {
		r.layer[l+".self_ns_per_node_cycle"] = perNC(buckets[l])
	}
	for _, l := range []string{"json", "http", "sha256"} {
		r.layer[l+".self_ms_per_op"] = perOpMS(buckets[l])
	}
	if d := m1.allCPU - m0.allCPU; d > 0 {
		r.layer["runtime.gc_share"] = (m1.gcCPU - m0.gcCPU) / d
	}
	if w.nodeCycles > 0 {
		r.layer["runtime.allocs_per_node_cycle"] = float64(m1.mallocs-m0.mallocs) / float64(w.nodeCycles)
	}
	if w.ops > 0 {
		r.layer["runtime.alloc_bytes_per_op"] = float64(m1.bytes-m0.bytes) / float64(w.ops)
	}
	if w.coveredNC > 0 {
		r.layer["noc.flit_hops_per_node_cycle"] = float64(w.flitHops) / float64(w.coveredNC)
		r.layer["cpu.retired_per_node_cycle"] = float64(w.retired) / float64(w.coveredNC)
	}
	if w.flitHops > 0 {
		r.layer["noc.deflections_per_hop"] = float64(w.deflections) / float64(w.flitHops)
	}
	if w.retired > 0 {
		r.layer["cache.l1_mpki"] = float64(w.misses) * 1000 / float64(w.retired)
	}
}
