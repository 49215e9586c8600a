// Command benchjson runs the fabric-stepping benchmark matrix
// (internal/noc/stepbench) through testing.Benchmark and writes the
// results as machine-readable JSON, so performance regressions are
// diffable across commits without parsing `go test -bench` text.
//
// Usage:
//
//	go run ./cmd/benchjson -label pr6-after  # append a labeled run
//	go run ./cmd/benchjson -fresh            # discard prior runs
//	go run ./cmd/benchjson -o results.json   # alternate path
//	go run ./cmd/benchjson -time 200ms       # longer per-case runs
//
// The output file accumulates labeled runs so before/after pairs live
// side by side in one document (schema: internal/bench; drift gate:
// cmd/benchdiff). Re-using a label replaces that run.
// Each record reports one case: nanoseconds per simulated cycle,
// flit-hops retired per second, and steady-state heap allocations per
// cycle (which the pooled hot path keeps at zero; see the stepbench
// zero-allocation test).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"nocsim/internal/bench"
	"nocsim/internal/noc/stepbench"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
	"nocsim/internal/workload"
)

func main() {
	testing.Init() // registers -test.* flags so benchtime is settable
	var (
		out      = flag.String("o", "BENCH_step.json", "output path")
		label    = flag.String("label", "run", "label for this sweep; re-using a label replaces that run")
		fresh    = flag.Bool("fresh", false, "discard runs already in the output file")
		benchFor = flag.Duration("time", 100*time.Millisecond, "minimum run time per benchmark cell")
	)
	flag.Parse()
	if err := flag.Set("test.benchtime", benchFor.String()); err != nil {
		fail(err)
	}

	doc := bench.File{}
	if !*fresh {
		var err error
		if doc, err = bench.Load(*out); err != nil {
			fail(err)
		}
	}

	var records []bench.Record
	for _, c := range stepbench.Cases() {
		c := c
		r := testing.Benchmark(func(b *testing.B) {
			stepbench.Bench(b, c)
		})
		nsPerCycle := float64(r.T.Nanoseconds()) / float64(r.N)
		records = append(records, bench.Record{
			Name:           c.Name,
			Workers:        1,
			NsPerCycle:     nsPerCycle,
			CyclesPerSec:   r.Extra["cycles/s"],
			FlitHopsPerSec: r.Extra["flithops/s"],
			AllocsPerCycle: float64(r.MemAllocs) / float64(r.N),
			BytesPerCycle:  float64(r.MemBytes) / float64(r.N),
		})
		fmt.Printf("%-16s %12.0f ns/cycle %14.0f flit-hops/s %8.2f allocs/cycle\n",
			c.Name, nsPerCycle, r.Extra["flithops/s"],
			float64(r.MemAllocs)/float64(r.N))
	}

	snaps := measureSnapshots()
	sweep, err := measureSweep()
	if err != nil {
		fail(err)
	}
	fmt.Printf("sweep: %d points, cold %d cycles (%.2f points/s) vs warm %d cycles (%.2f points/s), %.1fx fewer cycles\n",
		sweep.Points, sweep.ColdTotalCycles, sweep.ColdPointsPerSec,
		sweep.WarmTotalCycles, sweep.WarmPointsPerSec, sweep.ColdOverWarmCycles)

	doc.Env = bench.Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	doc.Runs = bench.Upsert(doc.Runs, bench.Run{Label: *label, Records: records, Snapshots: snaps, Sweep: sweep})
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(js, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d runs, %d records in %q)\n", *out, len(doc.Runs), len(records), *label)
}

// measureSnapshots runs the checkpoint-codec matrix: per configuration,
// the encode cost, the rebuild cost, and the blob size.
func measureSnapshots() []bench.SnapRecord {
	var out []bench.SnapRecord
	for _, c := range stepbench.SnapCases() {
		c := c
		enc := testing.Benchmark(func(b *testing.B) { stepbench.BenchSnapshot(b, c) })
		dec := testing.Benchmark(func(b *testing.B) { stepbench.BenchRestore(b, c) })
		r := bench.SnapRecord{
			Name:       c.Name,
			BlobBytes:  enc.Extra["blob_bytes"],
			SnapshotNs: float64(enc.T.Nanoseconds()) / float64(enc.N),
			RestoreNs:  float64(dec.T.Nanoseconds()) / float64(dec.N),
		}
		out = append(out, r)
		fmt.Printf("%-20s %12.0f ns/snapshot %12.0f ns/restore %10.0f blob bytes\n",
			c.Name, r.SnapshotNs, r.RestoreNs, r.BlobBytes)
	}
	return out
}

// measureSweep times one static-rate sweep twice: cold, where every
// point re-simulates the shared warmup prefix, and warm, where every
// point forks the one checkpoint the first point files. The cycle
// totals are exact by construction (the runner's warm tests pin the
// behaviour); the store's write counter is checked so the record can
// never claim sharing that did not happen.
func measureSweep() (*bench.SweepRecord, error) {
	const (
		points       = 8
		cycles int64 = 2_000
		warmup int64 = 20_000
	)
	sc := runner.DefaultScale()
	sc.Cycles = cycles
	sc.Epoch = 200
	// Two-wide pool: real sweeps have far more points than cores, so the
	// benchmark models the oversubscribed regime where saved cycles are
	// saved wall clock, not a machine wide enough to hide every redundant
	// warmup behind idle cores.
	sc.Parallel = 2
	sc.Warmup = warmup
	cat, ok := workload.CategoryByName("HM")
	if !ok {
		return nil, fmt.Errorf("sweep benchmark: unknown workload category HM")
	}
	w := workload.Generate(cat, 16, sc.Seed+11)
	cfgAt := func(i int) (string, sim.Config) {
		rate := 0.1 + 0.8*float64(i)/float64(points-1)
		return fmt.Sprintf("bench/static=%.2f", rate),
			runner.Baseline(w, 4, 4, sc, runner.WithStaticUniform(rate))
	}

	// Cold: one single-run plan per point under the same two-wide pool,
	// so nothing is shared — each point simulates its own warmup prefix,
	// exactly what independent sweep invocations (or the pre-checkpoint
	// harness) pay. A single plan would not do: the executor's in-memory
	// single-flight shares the warm prefix across a plan's points even
	// without a store.
	solo := sc
	solo.Parallel = 1
	start := time.Now()
	runner.Map(sc, points, func(i int) struct{} {
		plan := runner.NewPlan(solo)
		label, cfg := cfgAt(i)
		plan.Add(label, cfg, solo.Cycles)
		plan.Execute()
		return struct{}{}
	})
	coldSec := time.Since(start).Seconds()

	// Warm: all points in one plan over a store; the first files the
	// shared prefix, the rest fork it.
	dir, err := os.MkdirTemp("", "benchjson-snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := snap.NewStore(dir, 0)
	if err != nil {
		return nil, err
	}
	shared := sc
	shared.Snapshots = st
	plan := runner.NewPlan(shared)
	for i := 0; i < points; i++ {
		label, cfg := cfgAt(i)
		plan.Add(label, cfg, shared.Cycles)
	}
	start = time.Now()
	plan.Execute()
	warmSec := time.Since(start).Seconds()
	if stats := st.Stats(); stats.Writes != 1 {
		return nil, fmt.Errorf("warm sweep filed %d prefixes, want 1 shared", stats.Writes)
	}
	cold := int64(points) * (warmup + cycles)
	warm := warmup + int64(points)*cycles
	return &bench.SweepRecord{
		Points:             points,
		WarmupCycles:       warmup,
		MeasuredCycles:     cycles,
		ColdTotalCycles:    cold,
		WarmTotalCycles:    warm,
		ColdOverWarmCycles: float64(cold) / float64(warm),
		ColdPointsPerSec:   float64(points) / coldSec,
		WarmPointsPerSec:   float64(points) / warmSec,
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}
