package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// executePlan runs the resolved runs as one runner.Plan at sc, remotely
// when remote is non-nil.
func executePlan(sc runner.Scale, runs []runner.ResolvedRun, remote runner.Remote) ([]sim.Metrics, []runner.Stat) {
	sc.Remote = remote
	plan := runner.NewPlan(sc)
	for _, r := range runs {
		plan.Add(r.Label, r.Config, r.Cycles)
	}
	return plan.Execute(), plan.Stats()
}

// TestLocalAndRemoteAgree runs the same plan in-process, through a
// peerless daemon and through a coordinator with one peer, and requires
// identical metrics — the determinism contract extended over the wire
// and across the fleet. A second remote pass is answered from cache.
func TestLocalAndRemoteAgree(t *testing.T) {
	spec := smallGrid()
	points, err := spec.Points(runner.MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	sc, runs, err := runner.PlanSpec{Scale: spec.Scale, Runs: points}.Resolve(testScale())
	if err != nil {
		t.Fatal(err)
	}
	local, _ := executePlan(sc, runs, nil)

	_, peer := startPeer(t, testServeConfig(t))
	_, solo := startPeer(t, testServeConfig(t))
	_, _, fleetTS := startDaemon(t, testServeConfig(t), Config{Peers: []string{peer.URL}})
	for _, d := range []struct {
		name string
		url  string
	}{{"peerless daemon", solo.URL}, {"coordinator", fleetTS.URL}} {
		for pass, wantCached := range []bool{false, true} {
			got, stats := executePlan(sc, runs, NewClient(d.url))
			if !reflect.DeepEqual(local, got) {
				t.Fatalf("%s pass %d: remote execution diverged from local execution", d.name, pass)
			}
			for _, st := range stats {
				if st.Cached != wantCached {
					t.Errorf("%s pass %d: run %q cached = %v, want %v", d.name, pass, st.Label, st.Cached, wantCached)
				}
			}
		}
	}
}

// TestBatchSweeps pins the request splitting behind ExecuteSpecs:
// every batch encodes within the byte limit and the point cap, and the
// batches concatenate, in order, to the plan's runs.
func TestBatchSweeps(t *testing.T) {
	spec := runner.PlanSpec{Scale: runner.ScaleSpec{Cycles: 100, Epoch: 10, Seed: 3}}
	for i := 0; i < 300; i++ {
		spec.Runs = append(spec.Runs, runner.RunSpec{
			Label: fmt.Sprintf("r%03d", i), Preset: "controlled", Workload: "H", Width: 4 + i%5,
		})
	}
	check := func(limit int, wantBatches int) {
		t.Helper()
		batches, err := batchSweeps(spec, limit)
		if err != nil {
			t.Fatal(err)
		}
		var joined []runner.RunSpec
		for i, b := range batches {
			raw, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > limit || len(b.Runs) > runner.MaxSweepPoints || len(b.Runs) == 0 {
				t.Fatalf("limit %d: batch %d encodes to %d bytes with %d runs", limit, i, len(raw), len(b.Runs))
			}
			if b.Scale != spec.Scale {
				t.Fatalf("limit %d: batch %d scale %+v, want %+v", limit, i, b.Scale, spec.Scale)
			}
			joined = append(joined, b.Runs...)
		}
		if !reflect.DeepEqual(joined, spec.Runs) {
			t.Fatalf("limit %d: batches do not concatenate to the plan's runs", limit)
		}
		if wantBatches > 0 && len(batches) != wantBatches {
			t.Fatalf("limit %d: %d batches, want %d", limit, len(batches), wantBatches)
		}
	}
	whole, _ := json.Marshal(SweepSpec{Scale: spec.Scale, Runs: spec.Runs})
	check(len(whole), 1)   // exactly at the limit: one sweep
	check(len(whole)-1, 2) // one byte under: two
	check(1000, 0)
	check(serve.MaxBodyBytes, 1)

	// The point cap splits too.
	many := runner.PlanSpec{Runs: make([]runner.RunSpec, runner.MaxSweepPoints+1)}
	batches, err := batchSweeps(many, 1<<30)
	if err != nil || len(batches) != 2 || len(batches[0].Runs) != runner.MaxSweepPoints {
		t.Fatalf("point cap: %d batches, err %v; want %d runs then 1", len(batches), err, runner.MaxSweepPoints)
	}

	// So does the node budget: 17 64x64 runs are 16 and 1.
	big := runner.PlanSpec{Runs: make([]runner.RunSpec, runner.MaxPlanNodes/4096+1)}
	for i := range big.Runs {
		big.Runs[i].Width = 64
	}
	batches, err = batchSweeps(big, 1<<30)
	if err != nil || len(batches) != 2 || len(batches[1].Runs) != 1 {
		t.Fatalf("node budget: %d batches, err %v; want %d runs then 1", len(batches), err, len(big.Runs)-1)
	}

	if _, err := batchSweeps(spec, 100); err == nil {
		t.Fatal("a run larger than the limit was batched")
	}
}

// TestExecuteSpecsOverBodyCap executes a plan whose raw configs encode
// to more than the daemon's request cap, at a tiny cycle budget, through
// a peerless daemon: it must arrive as consecutive sweeps and come back
// equal to the local execution, in order.
func TestExecuteSpecsOverBodyCap(t *testing.T) {
	sc := testScale()
	sc.Cycles, sc.Epoch = 50, 10
	// A raw 16x16 config encodes to about 12.75 KB: 83 of them are just
	// over the 1 MiB cap.
	var ps runner.PlanSpec
	for i := 0; i < 83; i++ {
		ps.Runs = append(ps.Runs, runner.RunSpec{
			Label: fmt.Sprintf("cap%02d", i), Preset: "controlled", Workload: "HML",
			Width: 16, Seed: uint64(i + 1),
		})
	}
	sc, runs, err := ps.Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}
	var wire runner.PlanSpec
	for _, r := range runs {
		raw, err := json.Marshal(&r.Config)
		if err != nil {
			t.Fatal(err)
		}
		wire.Runs = append(wire.Runs, runner.RunSpec{Label: r.Label, Cycles: r.Cycles, Config: raw})
	}
	if body, _ := json.Marshal(wire); len(body) <= serve.MaxBodyBytes {
		t.Fatalf("plan encodes to %d bytes, not over the %d-byte cap", len(body), serve.MaxBodyBytes)
	}

	cfg := testServeConfig(t)
	cfg.JobTimeout = time.Minute
	_, _, ts := startDaemon(t, cfg, Config{})
	local, _ := executePlan(sc, runs, nil)
	remote, stats := executePlan(sc, runs, NewClient(ts.URL))
	if !reflect.DeepEqual(local, remote) {
		t.Fatal("remote execution of an over-cap plan diverged from local execution")
	}
	for i, st := range stats {
		if st.Label != runs[i].Label {
			t.Fatalf("stat %d is %q, want %q", i, st.Label, runs[i].Label)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-000002")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-cap plan arrived as one sweep (second sweep: HTTP %d)", resp.StatusCode)
	}
}

// TestExecuteSpecsOverNodeBudget executes, through a peerless daemon, a
// plan whose runs sum to more than runner.MaxPlanNodes: it must arrive
// as two sweeps and complete. The runs are identical, so the daemon
// simulates one of them.
func TestExecuteSpecsOverNodeBudget(t *testing.T) {
	ps := runner.PlanSpec{Scale: runner.ScaleSpec{Cycles: 50, Epoch: 10}}
	for len(ps.Runs)*16*16 <= runner.MaxPlanNodes {
		ps.Runs = append(ps.Runs, runner.RunSpec{Label: "budget", Preset: "controlled", Workload: "H", Width: 16})
	}
	_, _, ts := startDaemon(t, testServeConfig(t), Config{})
	res, err := NewClient(ts.URL).ExecuteSpecs(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ps.Runs) {
		t.Fatalf("%d results for %d runs", len(res), len(ps.Runs))
	}
	for i := range res {
		if !reflect.DeepEqual(res[i].Metrics, res[0].Metrics) {
			t.Fatalf("run %d metrics differ from run 0's", i)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-000002")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-budget plan arrived as one sweep (second sweep: HTTP %d)", resp.StatusCode)
	}
}
