package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
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

// TestSweepExpansionErrors pins the sweep API's side of expansion:
// every grid runner.SweepSpec.Points rejects — unknown axes (the label
// and a raw config among them), empty axes, malformed values, grids
// over runner.MaxSweepPoints and empty sweeps — and every sweep over
// runner.MaxPlanNodes is answered 400 with the error, before a single
// job is queued.
func TestSweepExpansionErrors(t *testing.T) {
	s, _, ts := startDaemon(t, testServeConfig(t), Config{})
	wide := make([]string, runner.MaxSweepPoints)
	for i := range wide {
		wide[i] = strconv.Itoa(i + 1)
	}
	budget := runner.RunSpec{Workload: "H", Width: 64, Height: 64}
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"unknown axis", SweepSpec{Axes: []Axis{{Name: "bogus", Values: rawVals("1")}}}, "unknown axis"},
		{"unnamed axis", SweepSpec{Axes: []Axis{{Values: rawVals("1")}}}, "no name"},
		{"empty axis", SweepSpec{Axes: []Axis{{Name: "seed"}}}, "no values"},
		{"bad value", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals(`"many"`)}}}, `axis \"seed\"`},
		{"oversized", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals(wide[:65]...)}, {Name: "width", Values: rawVals(wide[:65]...)}}}, "exceeds 4096 points"},
		{"over node budget", SweepSpec{Base: budget, Axes: []Axis{{Name: "seed", Values: rawVals(wide...)}}}, "node budget"},
		{"empty sweep", SweepSpec{}, "no points"},
		{"label axis", SweepSpec{Axes: []Axis{{Name: "label", Values: rawVals(`"x"`)}}}, `unknown axis \"label\"`},
		{"config axis", SweepSpec{Axes: []Axis{{Name: "config", Values: rawVals(`{"Width":4}`)}}}, `unknown axis \"config\"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
				t.Fatalf("POST /v1/sweeps: HTTP %d %s, want 400 mentioning %q", resp.StatusCode, raw, tc.want)
			}
		})
	}
	if _, ok := s.JobStatus("job-000001"); ok {
		t.Fatal("a rejected sweep queued a job")
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
