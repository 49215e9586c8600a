package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// planJSON is the canonical small test submission: one controlled 4x4
// run, short enough for -short CI but long enough to sample.
const planJSON = `{
	"scale": {"cycles": 2000, "epoch": 500, "seed": 42},
	"runs": [{"label": "t", "preset": "controlled", "workload": "H", "width": 4, "height": 4}]
}`

// testConfig is the base daemon configuration for tests: tiny sample
// interval, cache in a fresh temp dir.
func testConfig(t *testing.T) serve.Config {
	t.Helper()
	sc := runner.DefaultScale()
	return serve.Config{
		Scale:          sc,
		CacheDir:       t.TempDir(),
		QueueCap:       8,
		SampleInterval: 500,
	}
}

// startServer builds a daemon, opens its run slots, and serves its
// handler from an httptest server; everything is torn down with t.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// submit POSTs a plan and decodes the SubmitResponse, asserting the
// expected status code.
func submit(t *testing.T, ts *httptest.Server, plan string, wantCode int) serve.SubmitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var er serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("submit: HTTP %d (want %d): %s", resp.StatusCode, wantCode, er.Error)
	}
	var sub serve.SubmitResponse
	if wantCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

// await waits for the job to reach a terminal state through
// Client.Wait, the production completion path, failing the test if it
// takes longer than 30s.
func await(t *testing.T, ts *httptest.Server, id string) serve.JobResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	jr, err := serve.NewClient(ts.URL).Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", id, err)
	}
	return jr
}

// TestIdenticalPlanTwice is the service-layer determinism pin: the same
// plan submitted twice simulates exactly once, and the cached answer
// carries a byte-identical counters hash and identical metrics.
func TestIdenticalPlanTwice(t *testing.T) {
	s, ts := startServer(t, testConfig(t))

	sub1 := submit(t, ts, planJSON, http.StatusAccepted)
	if sub1.Dedup || sub1.CachedRuns != 0 || sub1.TotalRuns != 1 {
		t.Fatalf("first submit = %+v, want fresh uncached single-run job", sub1)
	}
	jr1 := await(t, ts, sub1.ID)
	if jr1.Status != "done" || len(jr1.Results) != 1 {
		t.Fatalf("first job = %+v, want done with 1 result", jr1)
	}
	if jr1.Results[0].Cached {
		t.Fatal("first run reported cached on an empty cache")
	}
	if jr1.Results[0].CountersHash == "" {
		t.Fatal("first run has no counters hash")
	}

	sub2 := submit(t, ts, planJSON, http.StatusAccepted)
	if sub2.ID == sub1.ID {
		t.Fatalf("resubmission after completion reused job %s", sub1.ID)
	}
	if sub2.PlanKey != sub1.PlanKey {
		t.Fatalf("plan keys differ across identical submissions: %s vs %s", sub1.PlanKey, sub2.PlanKey)
	}
	if sub2.CachedRuns != 1 {
		t.Fatalf("second submit reports %d cached runs, want 1", sub2.CachedRuns)
	}
	jr2 := await(t, ts, sub2.ID)
	if jr2.Status != "done" || len(jr2.Results) != 1 {
		t.Fatalf("second job = %+v, want done with 1 result", jr2)
	}
	if !jr2.Results[0].Cached {
		t.Fatal("second submission of an identical plan was re-simulated")
	}
	if jr2.Results[0].CountersHash != jr1.Results[0].CountersHash {
		t.Fatalf("cached counters hash %s != fresh %s",
			jr2.Results[0].CountersHash, jr1.Results[0].CountersHash)
	}
	if !reflect.DeepEqual(jr1.Results[0].Metrics, jr2.Results[0].Metrics) {
		t.Fatal("cached metrics differ from fresh metrics")
	}

	cs := s.Cache().Stats()
	if cs.Misses != 1 || cs.Hits != 1 || cs.Writes != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 miss, 1 hit, 1 write, 1 entry", cs)
	}
}

// TestDedupWhileActive pins the in-flight dedup: a plan submitted while
// an identical one is queued or running addresses the existing job.
func TestDedupWhileActive(t *testing.T) {
	cfg := testConfig(t)
	s, err := serve.New(cfg) // workers NOT started: jobs stay queued
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub1 := submit(t, ts, planJSON, http.StatusAccepted)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(planJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit: HTTP %d, want 200", resp.StatusCode)
	}
	var sub2 serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Dedup || sub2.ID != sub1.ID {
		t.Fatalf("second submit = %+v, want dedup onto %s", sub2, sub1.ID)
	}
}

// TestJobTimeout pins the timeout path: a tripped deadline fails the
// job and nothing partial reaches the cache.
func TestJobTimeout(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobTimeout = time.Nanosecond
	s, ts := startServer(t, cfg)

	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr := await(t, ts, sub.ID)
	if jr.Status != "failed" {
		t.Fatalf("job status = %q, want failed", jr.Status)
	}
	if !strings.Contains(jr.Error, "timeout") {
		t.Fatalf("job error = %q, want a timeout message", jr.Error)
	}
	if cs := s.Cache().Stats(); cs.Writes != 0 {
		t.Fatalf("timed-out job wrote %d cache entries, want 0", cs.Writes)
	}
}

// TestQueueBackpressure pins the 429: with a full queue and no workers,
// a distinct plan is rejected without being registered.
func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueCap = 1
	s, err := serve.New(cfg) // workers NOT started: the queue never drains
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit(t, ts, planJSON, http.StatusAccepted)
	other := strings.Replace(planJSON, `"seed": 42`, `"seed": 43`, 1)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
}

// TestInvalidPlan pins atomic validation: a plan with any bad run is
// rejected as a 400 before it can occupy a queue slot, and a mesh over
// the node cap is rejected before its workload is generated.
func TestInvalidPlan(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	for _, bad := range []string{
		`{"scale": {"cycles": 1000}, "runs": [
			{"label": "ok", "workload": "H"},
			{"label": "bad", "workload": "nope"}
		]}`,
		`{"runs": [{"workload": "H", "width": 100000, "height": 100000}]}`,
		`{"runs": [{"workload": "H", "width": 4294967296, "height": 4294967296}]}`,
		`{"runs": [{"config": {"Width": 100000, "Height": 100000}}]}`,
		// Enum values sim.New does not know: its default arms would run
		// them as the open baseline, BLESS, a mesh or the XOR mapping.
		`{"runs": [{"config": {"Controller": 5}}]}`,
		`{"runs": [{"config": {"Controller": 6}}]}`,
		`{"runs": [{"config": {"Controller": -1}}]}`,
		`{"runs": [{"config": {"Router": 3}}]}`,
		`{"runs": [{"config": {"Topo": 2}}]}`,
		`{"runs": [{"config": {"Mapping": 4}}]}`,
	} {
		submit(t, ts, bad, http.StatusBadRequest)
	}
}

// TestDrainRejectsSubmissions pins the shutdown contract: after Drain,
// intake answers 503.
func TestDrainRejectsSubmissions(t *testing.T) {
	cfg := testConfig(t)
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()
	submit(t, ts, planJSON, http.StatusServiceUnavailable)
}

// TestCorruptEntryRepair pins self-healing: a corrupted cache entry is
// detected on read, the run re-simulates, and the rewritten entry
// carries the same counters hash as the original.
func TestCorruptEntryRepair(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)

	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr := await(t, ts, sub.ID)
	hash := jr.Results[0].CountersHash

	var entryPath string
	err := filepath.Walk(cfg.CacheDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".json") {
			entryPath = path
		}
		return err
	})
	if err != nil || entryPath == "" {
		t.Fatalf("no cache entry found under %s: %v", cfg.CacheDir, err)
	}
	if err := os.WriteFile(entryPath, []byte(`{"key":"bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	sub2 := submit(t, ts, planJSON, http.StatusAccepted)
	jr2 := await(t, ts, sub2.ID)
	if jr2.Status != "done" {
		t.Fatalf("repair job = %+v, want done", jr2)
	}
	if jr2.Results[0].Cached {
		t.Fatal("corrupt entry was served as a cache hit")
	}
	if jr2.Results[0].CountersHash != hash {
		t.Fatalf("re-simulated hash %s != original %s", jr2.Results[0].CountersHash, hash)
	}
	if cs := s.Cache().Stats(); cs.Writes != 2 {
		t.Fatalf("cache writes = %d, want 2 (original + repair)", cs.Writes)
	}
}

// TestEventStream pins the events endpoint: a finished job's stream
// replays sample and run_done events and terminates with job_done.
func TestEventStream(t *testing.T) {
	_, ts := startServer(t, testConfig(t))

	sub := submit(t, ts, planJSON, http.StatusAccepted)
	await(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event stream line %d does not parse: %v", len(lines), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) == 0 {
		t.Fatal("event stream is empty")
	}
	counts := map[string]int{}
	for _, ev := range lines {
		typ, _ := ev["type"].(string)
		counts[typ]++
	}
	// 2000 cycles at interval 500 must sample at least twice.
	if counts["sample"] < 2 {
		t.Fatalf("event stream carries %d samples, want >= 2 (counts: %v)", counts["sample"], counts)
	}
	// The congestion ledger records every controller epoch: 2000 cycles
	// at epoch 500 must stream four decision records.
	if counts["epoch"] != 4 {
		t.Fatalf("event stream carries %d epoch records, want 4 (counts: %v)", counts["epoch"], counts)
	}
	if counts["run_done"] != 1 || counts["job_done"] != 1 {
		t.Fatalf("event counts = %v, want exactly one run_done and one job_done", counts)
	}
	if typ := lines[len(lines)-1]["type"]; typ != "job_done" {
		t.Fatalf("stream ends with %v, want job_done", typ)
	}
}

// TestEndpoints smoke-tests the observability surface.
func TestEndpoints(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	await(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v (%v), want ok", h, err)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var cs serve.CacheStats
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil || cs.Writes != 1 {
		t.Fatalf("cache stats = %+v (%v), want 1 write", cs, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, metric := range []string{
		"nocd_cache_hits_total", "nocd_cache_writes_total 1",
		"nocd_queue_depth", "nocd_jobs_total",
		`nocd_http_requests_total{path="POST /v1/runs"}`,
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics page missing %q", metric)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/runs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}
