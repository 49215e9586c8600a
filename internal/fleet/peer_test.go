package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// runSpan is one job's "run" span on its daemon's wall clock.
type runSpan struct{ start, end time.Time }

// peerRunSpan reads a job's trace from a daemon and places its "run"
// span on the wall clock through the submit instant's unix_us anchor.
func peerRunSpan(t *testing.T, base, job string) runSpan {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + job + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args struct {
				UnixUS int64 `json:"unix_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace of %s: %v", job, err)
	}
	var bornUS, startUS, endUS int64
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "submit":
			bornUS = ev.Args.UnixUS
		case "run":
			startUS, endUS = ev.Ts, ev.Ts+ev.Dur
		}
	}
	if bornUS == 0 || endUS == 0 {
		t.Fatalf("trace of %s lacks a submit anchor or a run span", job)
	}
	return runSpan{start: time.UnixMicro(bornUS + startUS), end: time.UnixMicro(bornUS + endUS)}
}

// slowGrid is two 8x8 points, each long enough (over 100 ms) that two
// jobs run one after the other cannot be mistaken for two at once.
func slowGrid() SweepSpec {
	return SweepSpec{
		Scale: runner.ScaleSpec{Cycles: 15000, Epoch: 1000},
		Base:  runner.RunSpec{Label: "slow", Preset: "controlled", Workload: "H", Width: 8, Height: 8},
		Axes:  []Axis{{Name: "seed", Values: rawVals("1", "2")}},
	}
}

// TestPeerlessSweepRunsPointsAtOnce pins the run slots on a daemon
// without peers, configured as nocd's defaults once were (one queue
// worker) but with two run slots: a sweep's two point jobs simulate at
// the same time, with the counters hashes of local -parallel 1
// execution.
func TestPeerlessSweepRunsPointsAtOnce(t *testing.T) {
	cfg := testServeConfig(t)
	cfg.Jobs = 1
	cfg.Scale.Parallel = 2
	_, _, ts := startDaemon(t, cfg, Config{})

	spec := slowGrid()
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 || res.Failed != 0 {
		t.Fatalf("sweep done %d, failed %d; want 2/0", res.Done, res.Failed)
	}
	for _, pt := range res.Points {
		if pt.CountersHash != want[pt.Label] {
			t.Errorf("point %q hash %s, want %s (local -parallel 1)", pt.Label, pt.CountersHash, want[pt.Label])
		}
	}
	a := peerRunSpan(t, ts.URL, res.Points[0].Job)
	b := peerRunSpan(t, ts.URL, res.Points[1].Job)
	if !a.start.Before(b.end) || !b.start.Before(a.end) {
		t.Fatalf("peerless daemon ran its sweep's two points one after the other: run spans [%v, %v] and [%v, %v]",
			a.start.Format(time.StampMicro), a.end.Format(time.StampMicro),
			b.start.Format(time.StampMicro), b.end.Format(time.StampMicro))
	}
}

// TestPeerRunsDispatchedJobsAtOnce pins dispatched execution on a peer
// with two run slots: the two jobs its coordinator keeps in flight
// run at the same time, not one after the other, with the counters
// hashes of local -parallel 1 execution. Draining the peer while a
// dispatched job runs waits for that job, and dispatches after it get
// 503.
func TestPeerRunsDispatchedJobsAtOnce(t *testing.T) {
	cfg := testServeConfig(t)
	cfg.Scale.Parallel = 2
	peer, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Enable(peer, Config{})
	if err != nil {
		t.Fatal(err)
	}
	peer.Start()
	peerTS := httptest.NewServer(peer.Handler())
	drained := false
	t.Cleanup(func() {
		peerTS.Close()
		if !drained {
			peer.Drain()
		}
		pf.Close()
	})
	_, _, coordTS := startDaemon(t, testServeConfig(t), Config{Peers: []string{peerTS.URL}, Window: 2})

	spec := slowGrid()
	want := referenceHashes(t, spec)
	res, err := NewClient(coordTS.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 || res.Failed != 0 {
		t.Fatalf("sweep done %d, failed %d; want 2/0", res.Done, res.Failed)
	}
	for _, pt := range res.Points {
		if pt.CountersHash != want[pt.Label] {
			t.Errorf("point %q hash %s, want %s (local -parallel 1)", pt.Label, pt.CountersHash, want[pt.Label])
		}
	}
	a := peerRunSpan(t, peerTS.URL, "job-000001")
	b := peerRunSpan(t, peerTS.URL, "job-000002")
	if !a.start.Before(b.end) || !b.start.Before(a.end) {
		t.Fatalf("peer ran its two dispatched jobs one after the other: run spans [%v, %v] and [%v, %v]",
			a.start.Format(time.StampMicro), a.end.Format(time.StampMicro),
			b.start.Format(time.StampMicro), b.end.Format(time.StampMicro))
	}

	// Drain while a dispatched job runs.
	pc := serve.NewClient(peerTS.URL)
	plan := runner.PlanSpec{
		Scale: spec.Scale,
		Runs:  []runner.RunSpec{{Label: "drain", Preset: "controlled", Workload: "H", Width: 8, Height: 8, Seed: 3}},
	}
	sub, err := pc.SubmitDispatch(plan)
	if err != nil {
		t.Fatal(err)
	}
	for {
		jr, changed, ok := peer.JobWatch(sub.ID)
		if !ok {
			t.Fatalf("peer lost dispatched job %s", sub.ID)
		}
		if jr.Status != "queued" {
			break
		}
		<-changed
	}
	peer.Drain()
	drained = true
	if jr, _ := peer.JobStatus(sub.ID); jr.Status != "done" {
		t.Fatalf("Drain returned with dispatched job %s %s (%s), want done", sub.ID, jr.Status, jr.Error)
	}
	plan.Runs[0].Seed = 4
	if _, err := pc.SubmitDispatch(plan); err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusServiceUnavailable)) {
		t.Fatalf("dispatch to a drained peer: %v, want HTTP 503", err)
	}
}

// compactJSON marshals v to compact JSON.
func compactJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDelegatedResultsReadBack pins what a coordinator's finished jobs
// keep: for a delegated point and for its cache-hit repeat, the metrics
// and manifest GET /v1/runs/{id} answers are those of the coordinator's
// cache entry, and the metrics are those the sweep stream reported.
func TestDelegatedResultsReadBack(t *testing.T) {
	_, peerTS := startPeer(t, testServeConfig(t))
	cfg := testServeConfig(t)
	_, _, coordTS := startDaemon(t, cfg, Config{Peers: []string{peerTS.URL}})
	spec := smallGrid()
	spec.Axes = spec.Axes[:1]
	for _, cached := range []bool{false, true} {
		res, err := NewClient(coordTS.URL).Sweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range res.Points {
			if pt.Cached != cached || pt.Metrics == nil {
				t.Fatalf("point %q cached %v (want %v), metrics %v", pt.Label, pt.Cached, cached, pt.Metrics)
			}
			jr, err := serve.NewClient(coordTS.URL).Job(pt.Job)
			if err != nil {
				t.Fatal(err)
			}
			if len(jr.Results) != 1 {
				t.Fatalf("job %s has %d results, want 1", pt.Job, len(jr.Results))
			}
			raw, err := os.ReadFile(filepath.Join(cfg.CacheDir, pt.Key[:2], pt.Key+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var e serve.Entry
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			got := jr.Results[0]
			if compactJSON(t, got.Metrics) != compactJSON(t, e.Metrics) || compactJSON(t, got.Metrics) != compactJSON(t, *pt.Metrics) {
				t.Errorf("point %q (cached %v): job metrics differ from the cache entry's or the stream's", pt.Label, cached)
			}
			if compactJSON(t, got.Manifest) != compactJSON(t, e.Manifest) {
				t.Errorf("point %q (cached %v): job manifest differs from the cache entry's", pt.Label, cached)
			}
		}
	}
}
