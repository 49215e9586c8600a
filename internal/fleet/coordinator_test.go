package fleet

// Failure-injection suite for the coordinator. Every test pins the
// fleet's hard guarantee — counters hashes byte-identical to a local
// -parallel 1 execution — while injecting the failure mode under test
// through the flaky proxy: a slow peer, peer death mid-job, duplicate
// steals, and every peer down.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// fleetCounters is a consistent snapshot of the coordinator's per-peer
// accounting.
type fleetCounters struct {
	live                              int
	dispatched, stolen, retried, dead []int64
}

func snapshotCounters(f *Fleet) fleetCounters {
	c := f.co
	c.mu.Lock()
	defer c.mu.Unlock()
	var fc fleetCounters
	for _, p := range c.peers {
		if p.alive {
			fc.live++
		}
		fc.dispatched = append(fc.dispatched, p.dispatched)
		fc.stolen = append(fc.stolen, p.stolen)
		fc.retried = append(fc.retried, p.retried)
		fc.dead = append(fc.dead, p.dead)
	}
	return fc
}

// awaitNoInflight blocks until no peer holds a task in its in-flight
// window. Every release broadcasts the coordinator's condition
// variable, so the wait needs no clock.
func awaitNoInflight(f *Fleet) {
	c := f.co
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		busy := false
		for _, p := range c.peers {
			busy = busy || len(p.inflight) > 0
		}
		if !busy {
			return
		}
		c.cond.Wait()
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// scrapeMetrics fetches a daemon's /metrics page.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricValue reads one unlabeled integer metric off a /metrics page.
func metricValue(t *testing.T, page, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s = %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not on page", name)
	return 0
}

// spanCount counts the spans named name of run label in the trace of a
// daemon's job.
func spanCount(t *testing.T, base, job, name, label string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + job + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Label string `json:"label"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace of %s: %v", job, err)
	}
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == name && ev.Args.Label == label {
			n++
		}
	}
	return n
}

// wideGrid is the 6-point byte-identity grid: 2 presets x 3 seeds.
func wideGrid() SweepSpec {
	spec := smallGrid()
	spec.Axes[1].Values = rawVals("1", "2", "3")
	return spec
}

// assertHashes checks every point of a completed sweep against the
// local reference.
func assertHashes(t *testing.T, res *SweepResult, want map[string]string) {
	t.Helper()
	for _, pt := range res.Points {
		if pt.State != "done" {
			t.Fatalf("point %q = %+v, want done", pt.Label, pt)
		}
		if pt.CountersHash != want[pt.Label] {
			t.Errorf("point %q hash %s, want %s (local -parallel 1)", pt.Label, pt.CountersHash, want[pt.Label])
		}
	}
}

// TestFleetByteIdentity is the tentpole pin: a 3-peer fleet sweep
// produces exactly the counters hashes of the same grid run locally at
// -parallel 1, every point simulates exactly once across the fleet,
// and a repeated sweep is answered 100% from the coordinator's cache,
// filed from the dispatch replies, with zero new simulations —
// verified through the metrics.
func TestFleetByteIdentity(t *testing.T) {
	var peerURLs []string
	var peerTS []string
	for i := 0; i < 3; i++ {
		_, ts := startPeer(t, testServeConfig(t))
		peerURLs = append(peerURLs, ts.URL)
		peerTS = append(peerTS, ts.URL)
	}
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         peerURLs,
		Window:        2,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
	})

	spec := wideGrid()
	want := referenceHashes(t, spec)

	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 6 || res.Cached != 0 {
		t.Fatalf("first sweep done %d cached %d, want 6 fresh", res.Done, res.Cached)
	}
	assertHashes(t, res, want)

	fc := snapshotCounters(fl)
	if got := sum(fc.dispatched); got != 6 {
		t.Errorf("fleet dispatched %d jobs for 6 points, want 6", got)
	}
	if sum(fc.retried) != 0 || sum(fc.dead) != 0 {
		t.Errorf("healthy fleet recorded retries/deaths: %+v", fc)
	}
	var peerRuns int64
	for _, u := range peerTS {
		peerRuns += metricValue(t, scrapeMetrics(t, u), "nocd_run_seconds_count")
	}
	if peerRuns != 6 {
		t.Errorf("peers simulated %d runs for 6 points, want exactly 6", peerRuns)
	}
	if n := metricValue(t, scrapeMetrics(t, ts.URL), "nocd_run_seconds_count"); n != 0 {
		t.Errorf("coordinator simulated %d runs itself, want 0", n)
	}

	// Second identical sweep: all cache hits, zero simulations anywhere.
	res2, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 6 {
		t.Fatalf("repeat sweep cached %d of 6 points", res2.Cached)
	}
	assertHashes(t, res2, want)
	if fc2 := snapshotCounters(fl); sum(fc2.dispatched) != sum(fc.dispatched) {
		t.Errorf("repeat sweep dispatched %d new jobs, want 0", sum(fc2.dispatched)-sum(fc.dispatched))
	}
	var peerRuns2 int64
	for _, u := range peerTS {
		peerRuns2 += metricValue(t, scrapeMetrics(t, u), "nocd_run_seconds_count")
	}
	if peerRuns2 != peerRuns {
		t.Errorf("repeat sweep simulated %d new runs on peers, want 0", peerRuns2-peerRuns)
	}
}

// TestFleetSlowPeerDoesNotHoldWork puts one of two peers behind a long
// delay with duplicate steals off: both peers' workers pull from the one
// queue, so the fast peer takes most of the grid while the slow peer
// holds only what it is running, and nothing is stolen.
func TestFleetSlowPeerDoesNotHoldWork(t *testing.T) {
	_, fast := startPeer(t, testServeConfig(t))
	_, realSlow := startPeer(t, testServeConfig(t))
	slow, slowTS := newFlakyProxy(t, realSlow.URL)
	slow.setDelay(300 * time.Millisecond)
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{fast.URL, slowTS.URL},
		Window:        1,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
	})

	spec := wideGrid()
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 6 {
		t.Fatalf("sweep done %d, want 6", res.Done)
	}
	assertHashes(t, res, want)

	fc := snapshotCounters(fl)
	if fc.dispatched[0] <= fc.dispatched[1] {
		t.Errorf("fast peer dispatched %d points, slow peer %d; want the fast peer ahead", fc.dispatched[0], fc.dispatched[1])
	}
	if sum(fc.stolen) != 0 {
		t.Errorf("stolen = %v with duplicate steals off, want 0", fc.stolen)
	}
}

// TestFleetPeerDeathMidJob kills a peer after it accepts a dispatch:
// the coordinator must mark it dead, requeue the orphaned job on the
// surviving peer, and still deliver every point with reference-equal
// hashes — jobs are requeued, never dropped.
func TestFleetPeerDeathMidJob(t *testing.T) {
	_, realA := startPeer(t, testServeConfig(t))
	proxyA, proxyATS := newFlakyProxy(t, realA.URL)
	_, peerB := startPeer(t, testServeConfig(t))
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{proxyATS.URL, peerB.URL},
		Window:        2,
		ProbeInterval: 25 * time.Millisecond,
		StealAfter:    -1,
	})
	proxyA.armDeathAfterDispatch()

	spec := smallGrid()
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 4 || res.Failed != 0 {
		t.Fatalf("sweep done %d failed %d, want all 4 done despite the dead peer", res.Done, res.Failed)
	}
	assertHashes(t, res, want)

	fc := snapshotCounters(fl)
	if fc.dead[0] < 1 {
		t.Errorf("killed peer was never marked dead: %+v", fc)
	}
	if fc.retried[0] < 1 {
		t.Errorf("no job was retried off the dead peer: %+v", fc)
	}
	if fc.live != 1 {
		t.Errorf("%d peers live, want 1 (the survivor)", fc.live)
	}
}

// TestFleetDuplicateSteal puts one peer behind a long delay so an idle
// peer duplicate-steals its in-flight job: the first completion wins,
// results stay reference-identical, and a resubmission is fully
// cached — the CacheKey dedup makes the duplicate execution harmless.
func TestFleetDuplicateSteal(t *testing.T) {
	_, realA := startPeer(t, testServeConfig(t))
	proxyA, proxyATS := newFlakyProxy(t, realA.URL)
	proxyA.setDelay(300 * time.Millisecond)
	_, peerB := startPeer(t, testServeConfig(t))
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{proxyATS.URL, peerB.URL},
		Window:        1,
		ProbeInterval: 10 * time.Millisecond,
		StealAfter:    20 * time.Millisecond,
	})

	spec := smallGrid()
	spec.Axes = spec.Axes[:1] // 2 points: one per preset
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 {
		t.Fatalf("sweep done %d, want 2", res.Done)
	}
	assertHashes(t, res, want)

	if fc := snapshotCounters(fl); sum(fc.stolen) < 1 {
		t.Errorf("no steal happened off the slow peer: %+v", fc)
	}
	// Both executions of the duplicated task leave the peers' windows
	// once it settles, and neither is counted as a peer failure.
	awaitNoInflight(fl)
	if fc := snapshotCounters(fl); sum(fc.dead) != 0 || sum(fc.retried) != 0 {
		t.Errorf("duplicate execution was counted as a peer failure: %+v", fc)
	}

	res2, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 2 {
		t.Fatalf("post-steal resubmission cached %d of 2 points (duplicate execution broke dedup?)", res2.Cached)
	}
	assertHashes(t, res2, want)
}

// TestFleetDuplicateLoserCancelled duplicates a task off a slow peer
// listed after a fast one, so the fast peer both wins the task and
// returns its result: the winner settles the task while the slow
// peer's worker is still waiting on it. That wait must be cancelled
// and the task released from the slow peer's window without marking
// the peer dead.
func TestFleetDuplicateLoserCancelled(t *testing.T) {
	_, fast := startPeer(t, testServeConfig(t))
	_, realSlow := startPeer(t, testServeConfig(t))
	slow, slowTS := newFlakyProxy(t, realSlow.URL)
	slow.setDelay(300 * time.Millisecond)
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{fast.URL, slowTS.URL},
		Window:        1,
		ProbeInterval: 10 * time.Millisecond,
		StealAfter:    20 * time.Millisecond,
	})

	spec := smallGrid()
	spec.Axes = spec.Axes[:1] // 2 points: one per peer
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 {
		t.Fatalf("sweep done %d, want 2", res.Done)
	}
	assertHashes(t, res, want)
	awaitNoInflight(fl)
	fc := snapshotCounters(fl)
	if fc.stolen[0] < 1 {
		t.Errorf("the fast peer stole nothing off the slow one: %+v", fc)
	}
	if fc.dead[1] != 0 || fc.live != 2 {
		t.Errorf("the cancelled wait on the slow peer was counted as its death: %+v", fc)
	}
	if page := scrapeMetrics(t, realSlow.URL); strings.Contains(page, `path="GET /v1/runs/{id}"`) {
		t.Errorf("the losing worker still fetched its job's result from the slow peer:\n%s", page)
	}
}

// TestFleetAllPeersDownFallback starts every peer dead: the
// coordinator must degrade gracefully to local execution and still
// answer the sweep with reference-equal hashes.
func TestFleetAllPeersDownFallback(t *testing.T) {
	_, realA := startPeer(t, testServeConfig(t))
	proxyA, proxyATS := newFlakyProxy(t, realA.URL)
	proxyA.setDead(true)
	_, realB := startPeer(t, testServeConfig(t))
	proxyB, proxyBTS := newFlakyProxy(t, realB.URL)
	proxyB.setDead(true)

	log := &syncLog{}
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{proxyATS.URL, proxyBTS.URL},
		Window:        1,
		ProbeInterval: 20 * time.Millisecond,
		StealAfter:    -1,
		Log:           log,
	})

	spec := smallGrid()
	spec.Axes = spec.Axes[:1] // 2 points
	want := referenceHashes(t, spec)
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 || res.Failed != 0 {
		t.Fatalf("sweep done %d failed %d, want all 2 done locally", res.Done, res.Failed)
	}
	assertHashes(t, res, want)

	fc := snapshotCounters(fl)
	if fc.live != 0 {
		t.Errorf("%d peers live after total outage, want 0", fc.live)
	}
	if sum(fc.dispatched) != 0 {
		t.Errorf("%d dispatches against dead peers succeeded", sum(fc.dispatched))
	}
	if !strings.Contains(log.String(), "executing") {
		t.Error("coordinator never logged the local fallback")
	}
	// The fallback is the daemon's own executor: it times and traces
	// each run like any local one.
	if n := metricValue(t, scrapeMetrics(t, ts.URL), "nocd_run_seconds_count"); n != 2 {
		t.Errorf("coordinator timed %d local runs, want 2", n)
	}
	for _, pt := range res.Points {
		if n := spanCount(t, ts.URL, pt.Job, "simulate", pt.Label); n != 1 {
			t.Errorf("job %s traced %d simulate spans for run %q, want 1", pt.Job, n, pt.Label)
		}
	}
}

// TestFleetTamperingPeer puts the only peer behind a proxy that adds
// one L1 miss to every result it returns. The coordinator's daemon
// must reject the result: the job fails naming the run, and no entry
// is filed under the run's key.
func TestFleetTamperingPeer(t *testing.T) {
	_, backend := startPeer(t, testServeConfig(t))
	proxy, proxyTS := newFlakyProxy(t, backend.URL)
	proxy.setTamper(true)
	cfg := testServeConfig(t)
	_, _, ts := startDaemon(t, cfg, Config{
		Peers:         []string{proxyTS.URL},
		Window:        1,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
	})

	points, err := smallGrid().Points(runner.MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	plan := runner.PlanSpec{Scale: smallGrid().Scale, Runs: points[:1]}
	_, runs, err := plan.Resolve(testScale())
	if err != nil {
		t.Fatal(err)
	}
	c := serve.NewClient(ts.URL)
	sub, err := c.Submit(plan)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := c.Wait(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != "failed" || !strings.Contains(jr.Error, runs[0].Label) || len(jr.Results) != 0 {
		t.Fatalf("job over a tampering peer = %s %q with %d results, want failed naming run %q",
			jr.Status, jr.Error, len(jr.Results), runs[0].Label)
	}
	cache, err := serve.OpenCache(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Contains(runs[0].Key) {
		t.Errorf("the coordinator filed the tampered result of run %q", runs[0].Label)
	}
}

// TestFleetColdCoordinator puts a coordinator with an empty cache in
// front of a peer that already holds the grid: the peer answers every
// point from its own cache, simulating nothing, and the coordinator
// files each result with the peer's manifest.
func TestFleetColdCoordinator(t *testing.T) {
	peerCfg := testServeConfig(t)
	_, peer := startPeer(t, peerCfg)
	spec := smallGrid()
	spec.Axes = spec.Axes[:1] // 2 points
	want := referenceHashes(t, spec)
	if _, err := NewClient(peer.URL).Sweep(spec); err != nil {
		t.Fatal(err)
	}
	peerRuns := metricValue(t, scrapeMetrics(t, peer.URL), "nocd_run_seconds_count")

	cfg := testServeConfig(t)
	_, _, ts := startDaemon(t, cfg, Config{
		Peers:         []string{peer.URL},
		Window:        1,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
	})
	res, err := NewClient(ts.URL).Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 2 || res.Cached != 2 {
		t.Fatalf("sweep done %d cached %d, want 2/2 cached", res.Done, res.Cached)
	}
	assertHashes(t, res, want)
	if n := metricValue(t, scrapeMetrics(t, peer.URL), "nocd_run_seconds_count"); n != peerRuns {
		t.Errorf("the peer simulated %d new runs for points it held, want 0", n-peerRuns)
	}

	peerCache, err := serve.OpenCache(peerCfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	coordCache, err := serve.OpenCache(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		pe, err := peerCache.Get(pt.Key)
		if err != nil || pe == nil {
			t.Fatalf("peer entry of %q: %v", pt.Label, err)
		}
		ce, err := coordCache.Get(pt.Key)
		if err != nil || ce == nil {
			t.Fatalf("coordinator entry of %q = %v, %v; want the peer's result filed", pt.Label, ce, err)
		}
		if !reflect.DeepEqual(ce.Manifest, pe.Manifest) {
			t.Errorf("coordinator filed %q with manifest %+v, want the peer's %+v", pt.Label, ce.Manifest, pe.Manifest)
		}
	}
}

// TestFleetFallbackAfterOutage submits a sweep once every peer is
// already marked dead: no further peer failure will be recorded to
// wake the submitting goroutines, so each must claim its task for
// local execution as soon as it is assigned.
func TestFleetFallbackAfterOutage(t *testing.T) {
	_, realA := startPeer(t, testServeConfig(t))
	proxyA, proxyATS := newFlakyProxy(t, realA.URL)
	proxyA.setDead(true)
	_, fl, ts := startDaemon(t, testServeConfig(t), Config{
		Peers:         []string{proxyATS.URL},
		Window:        1,
		ProbeInterval: 20 * time.Millisecond,
		StealAfter:    -1,
	})

	first := smallGrid()
	first.Axes = first.Axes[:1]
	if _, err := NewClient(ts.URL).Sweep(first); err != nil {
		t.Fatal(err)
	}
	if fc := snapshotCounters(fl); fc.live != 0 {
		t.Fatalf("%d peers live after the outage sweep, want 0", fc.live)
	}

	second := smallGrid()
	second.Axes[1].Values = rawVals("3", "4")
	want := referenceHashes(t, second)
	res, err := NewClient(ts.URL).Sweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 4 || res.Failed != 0 {
		t.Fatalf("sweep done %d failed %d, want all 4 done locally", res.Done, res.Failed)
	}
	assertHashes(t, res, want)
	if fc := snapshotCounters(fl); sum(fc.dispatched) != 0 {
		t.Errorf("%d dispatches against a dead peer succeeded", sum(fc.dispatched))
	}
}
