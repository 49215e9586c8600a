package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"nocsim/internal/runner"
)

func rawVals(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

// TestSweepExpansion pins the grid semantics: odometer order with the
// last axis fastest, labels naming every axis value, the size axis
// setting both mesh dimensions, and explicit runs appended last.
func TestSweepExpansion(t *testing.T) {
	spec := SweepSpec{
		Base: runner.RunSpec{Label: "g", Preset: "controlled", Workload: "H", Width: 4, Height: 4},
		Axes: []Axis{
			{Name: "preset", Values: rawVals(`"baseline"`, `"controlled"`)},
			{Name: "seed", Values: rawVals("1", "2", "3")},
		},
		Runs: []runner.RunSpec{{Label: "extra", Preset: "static", Workload: "H", Width: 4, Height: 4}},
	}
	points, err := spec.Points(4096)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"g/preset=baseline,seed=1", "g/preset=baseline,seed=2", "g/preset=baseline,seed=3",
		"g/preset=controlled,seed=1", "g/preset=controlled,seed=2", "g/preset=controlled,seed=3",
		"extra",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("expanded to %d points, want %d", len(points), len(wantLabels))
	}
	for i, want := range wantLabels {
		if points[i].Label != want {
			t.Errorf("point %d label = %q, want %q", i, points[i].Label, want)
		}
	}
	if points[0].Preset != "baseline" || points[0].Seed != 1 {
		t.Errorf("point 0 = %+v, want baseline seed 1", points[0])
	}
	if points[5].Preset != "controlled" || points[5].Seed != 3 {
		t.Errorf("point 5 = %+v, want controlled seed 3", points[5])
	}

	// The size axis sets both dimensions; an unlabeled base gets the
	// "sweep" prefix.
	sz := SweepSpec{
		Base: runner.RunSpec{Preset: "controlled", Workload: "H"},
		Axes: []Axis{{Name: "size", Values: rawVals("4", "8")}},
	}
	pts, err := sz.Points(4096)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Width != 8 || pts[1].Height != 8 {
		t.Errorf("size axis point = %+v, want 8x8", pts[1])
	}
	if pts[0].Label != "sweep/size=4" {
		t.Errorf("unlabeled base expands to %q, want sweep/size=4", pts[0].Label)
	}
}

// TestSweepExpansionErrors pins the rejection paths: unknown axes,
// empty axes, malformed values, oversized grids and empty sweeps all
// error before anything executes.
func TestSweepExpansionErrors(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
		max  int
		want string
	}{
		{"unknown axis", SweepSpec{Axes: []Axis{{Name: "bogus", Values: rawVals("1")}}}, 4096, "unknown axis"},
		{"unnamed axis", SweepSpec{Axes: []Axis{{Values: rawVals("1")}}}, 4096, "no name"},
		{"empty axis", SweepSpec{Axes: []Axis{{Name: "seed"}}}, 4096, "no values"},
		{"bad value", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals(`"many"`)}}}, 4096, `axis "seed"`},
		{"oversized", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals("1", "2", "3", "4")}}}, 3, "exceeds 3 points"},
		{"empty sweep", SweepSpec{}, 4096, "no points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Points(tc.max)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Points() error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// smallGrid is the canonical test sweep: 2 presets x 2 seeds on a 4x4
// mesh, cheap enough to reference-execute locally.
func smallGrid() SweepSpec {
	return SweepSpec{
		Scale: runner.ScaleSpec{Cycles: 2000, Epoch: 500},
		Base:  runner.RunSpec{Label: "g", Preset: "controlled", Workload: "H", Width: 4, Height: 4},
		Axes: []Axis{
			{Name: "preset", Values: rawVals(`"baseline"`, `"controlled"`)},
			{Name: "seed", Values: rawVals("1", "2")},
		},
	}
}

// TestSweepLocalDaemon runs the sweep API on a peerless daemon: points
// execute on the daemon's own queue, the client returns them in grid
// order with reference-equal hashes, a resubmission is answered fully
// from cache, and the registry serves the finished sweep.
func TestSweepLocalDaemon(t *testing.T) {
	_, _, ts := startDaemon(t, testServeConfig(t), Config{})
	spec := smallGrid()
	want := referenceHashes(t, spec)

	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || res.Done != 4 || res.Failed != 0 {
		t.Fatalf("sweep = %d points, done %d, failed %d; want 4/4/0", len(res.Points), res.Done, res.Failed)
	}
	for i, pt := range res.Points {
		if pt.Index != i || pt.State != "done" {
			t.Fatalf("point %d = %+v, want done at index %d", i, pt, i)
		}
		if pt.Cached {
			t.Errorf("point %q cached on a fresh daemon", pt.Label)
		}
		if pt.CountersHash != want[pt.Label] {
			t.Errorf("point %q hash %s, want %s (local -parallel 1)", pt.Label, pt.CountersHash, want[pt.Label])
		}
		if pt.Metrics == nil {
			t.Errorf("point %q carries no metrics", pt.Label)
		}
	}

	res2, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 4 {
		t.Fatalf("resubmitted sweep cached %d of 4 points", res2.Cached)
	}
	for i, pt := range res2.Points {
		if !pt.Cached || pt.CountersHash != res.Points[i].CountersHash {
			t.Errorf("resubmitted point %q = cached %v hash %s, want cached with hash %s",
				pt.Label, pt.Cached, pt.CountersHash, res.Points[i].CountersHash)
		}
	}

	// The registry snapshot agrees with the stream.
	var snap SweepResponse
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != "done" || snap.Done != 4 || len(snap.Points) != 4 {
		t.Fatalf("registry snapshot = %+v, want done with 4 points", snap)
	}
	if resp, _ := http.Get(ts.URL + "/v1/sweeps/no-such-sweep"); resp != nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown sweep: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestSweepQueueCapOne runs a sweep through a coordinator whose queue
// holds one job and whose single worker runs one at a time: most
// submissions are first refused with 429, and each must be retried
// when the worker dequeues a job, until every point is done with its
// reference hash.
func TestSweepQueueCapOne(t *testing.T) {
	_, peer := startPeer(t, testServeConfig(t))
	cfg := testServeConfig(t)
	cfg.QueueCap, cfg.Jobs = 1, 1
	_, _, ts := startDaemon(t, cfg, Config{
		Peers:         []string{peer.URL},
		Window:        1,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
		Backoff:       time.Millisecond,
	})
	spec := smallGrid()
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 4 || res.Failed != 0 {
		t.Fatalf("sweep done %d failed %d, want all 4 done", res.Done, res.Failed)
	}
	assertHashes(t, res, want)
}

// TestSweepRejectsBadGrid pins atomic validation: a grid with any bad
// point is rejected whole with 400 before a single job is queued.
func TestSweepRejectsBadGrid(t *testing.T) {
	_, _, ts := startDaemon(t, testServeConfig(t), Config{})
	for _, spec := range []SweepSpec{
		{Axes: []Axis{{Name: "bogus", Values: rawVals("1")}}},
		{Base: runner.RunSpec{Preset: "no-such-preset", Workload: "H", Width: 4, Height: 4},
			Axes: []Axis{{Name: "seed", Values: rawVals("1", "2")}}},
	} {
		if _, err := NewClient(ts.URL).Sweep(spec); err == nil ||
			!strings.Contains(err.Error(), "sweep rejected") {
			t.Fatalf("bad grid error = %v, want sweep rejected", err)
		}
	}
}

// TestSweepClientFailurePath pins the all-or-nothing client contract:
// a sweep with a terminally failing point returns an error naming it,
// never partial points — the exit-path the sweep and compare commands
// rely on for no-partial-output.
func TestSweepClientFailurePath(t *testing.T) {
	cfg := testServeConfig(t)
	cfg.JobTimeout = time.Nanosecond
	_, _, ts := startDaemon(t, cfg, Config{})

	res, err := NewClient(ts.URL).Sweep(smallGrid())
	if err == nil {
		t.Fatalf("sweep on a 1ns-timeout daemon succeeded: %+v", res)
	}
	if res != nil {
		t.Fatalf("failed sweep returned partial points: %+v", res)
	}
	if !strings.Contains(err.Error(), "points failed") || !strings.Contains(err.Error(), "g/preset=") {
		t.Errorf("failure error %q does not name the failed point", err)
	}

	// The runner.Remote adapter propagates the same failure.
	spec := runner.PlanSpec{
		Scale: runner.ScaleSpec{Cycles: 2000, Epoch: 500},
		Runs:  []runner.RunSpec{{Label: "r", Preset: "controlled", Workload: "H", Width: 4, Height: 4}},
	}
	if _, err := NewClient(ts.URL).ExecuteSpecs(spec); err == nil {
		t.Fatal("ExecuteSpecs on a failing daemon returned no error")
	}
}
