package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// slowPlan is one 8x8 run, long enough to still be running while the
// next submissions arrive.
func slowPlan(seed int) string {
	return strings.Replace(`{"scale": {"cycles": 20000, "epoch": 1000},
		"runs": [{"label": "slow", "preset": "controlled", "workload": "H", "width": 8, "height": 8, "seed": SEED}]}`,
		"SEED", string(rune('0'+seed)), 1)
}

// dispatch submits a plan with the coordinator fan-out header straight
// to the handler, returning the status code and the decoded answer.
func dispatch(t *testing.T, s *serve.Server, plan string) (int, serve.SubmitResponse) {
	t.Helper()
	return post(t, s, plan, true)
}

// post submits a plan straight to the handler, as coordinator fan-out
// traffic when dispatched is set, and returns the status code and the
// decoded answer.
func post(t *testing.T, s *serve.Server, plan string, dispatched bool) (int, serve.SubmitResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(plan))
	if dispatched {
		req.Header.Set(serve.DispatchHeader, "1")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var sub serve.SubmitResponse
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, sub
}

// awaitDone follows a job in-process until it is terminal.
func awaitDone(t *testing.T, s *serve.Server, id string) serve.JobResponse {
	t.Helper()
	for {
		jr, changed, ok := s.JobWatch(id)
		if !ok {
			t.Fatalf("no job %s", id)
		}
		if jr.Status == "done" || jr.Status == "failed" {
			return jr
		}
		<-changed
	}
}

// TestDispatchedAdmission pins the bound on dispatched jobs: at most
// QueueCap are accepted and unfinished, the next gets 429, and a
// finished one frees its room.
func TestDispatchedAdmission(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueCap = 2
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Drain)

	var ids []string
	for seed := 1; seed <= 2; seed++ {
		code, sub := dispatch(t, s, slowPlan(seed))
		if code != http.StatusAccepted {
			t.Fatalf("dispatch %d: HTTP %d, want 202", seed, code)
		}
		ids = append(ids, sub.ID)
	}
	if code, _ := dispatch(t, s, slowPlan(3)); code != http.StatusTooManyRequests {
		t.Fatalf("third dispatch with 2 running: HTTP %d, want 429", code)
	}
	if jr := awaitDone(t, s, ids[0]); jr.Status != "done" {
		t.Fatalf("dispatched job %s %s: %s", ids[0], jr.Status, jr.Error)
	}
	if code, _ := dispatch(t, s, slowPlan(3)); code != http.StatusAccepted {
		t.Fatalf("dispatch after a job finished: HTTP %d, want 202", code)
	}
}

// runSpan reads a job's trace and returns its "run" span on the wall
// clock, in microseconds since the Unix epoch, through the submit
// instant's unix_us anchor.
func runSpan(t *testing.T, s *serve.Server, id string) (start, end int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil))
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
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace of %s: %v", id, err)
	}
	var born int64
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "submit":
			born = ev.Args.UnixUS
		case "run":
			start, end = ev.Ts, ev.Ts+ev.Dur
		}
	}
	if born == 0 || end == 0 {
		t.Fatalf("trace of %s lacks a submit anchor or a run span", id)
	}
	return born + start, born + end
}

// TestRunSlotsBoundSimulation pins the one bound on in-process
// simulation: at one run slot, two dispatched jobs and a client job,
// all accepted at once, simulate one at a time.
func TestRunSlotsBoundSimulation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Scale.Parallel = 1
	cfg.QueueCap = 4
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Drain)

	var ids []string
	for seed, dispatched := range []bool{true, true, false} {
		code, sub := post(t, s, slowPlan(seed+1), dispatched)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d (dispatched %v): HTTP %d, want 202", seed+1, dispatched, code)
		}
		ids = append(ids, sub.ID)
	}
	spans := make([][2]int64, len(ids))
	for i, id := range ids {
		if jr := awaitDone(t, s, id); jr.Status != "done" {
			t.Fatalf("job %s %s: %s", id, jr.Status, jr.Error)
		}
		spans[i][0], spans[i][1] = runSpan(t, s, id)
	}
	for a := range spans {
		for b := a + 1; b < len(spans); b++ {
			if spans[a][0] < spans[b][1] && spans[b][0] < spans[a][1] {
				t.Errorf("jobs %s and %s simulated at once on one run slot: run spans %v and %v (unix us)",
					ids[a], ids[b], spans[a], spans[b])
			}
		}
	}
}

// entryJSON reads a run's cache entry from disk and returns its metrics
// and manifest as compact JSON.
func entryJSON(t *testing.T, dir, key string) (metrics, manifest string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var e serve.Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return compact(t, e.Metrics), compact(t, e.Manifest)
}

func compact(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResultsReadBack pins what a finished job keeps: the metrics and
// manifest GET /v1/runs/{id} answers for a fresh and for a cache-hit
// job are those of the run's cache entry, the read-back counts as no
// cache hit or miss, an entry that cannot be read back is a 500, and a
// result the cache could not store is still answered in full.
func TestResultsReadBack(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)

	for _, want := range []bool{false, true} {
		sub := submit(t, ts, planJSON, http.StatusAccepted)
		await(t, ts, sub.ID)
		before := s.Cache().Stats() // the job is done: only read-back follows
		jr := await(t, ts, sub.ID)
		if jr.Status != "done" || len(jr.Results) != 1 || jr.Results[0].Cached != want {
			t.Fatalf("job %s = %+v, want done with 1 result, cached %v", sub.ID, jr, want)
		}
		res := jr.Results[0]
		m, man := entryJSON(t, cfg.CacheDir, res.Key)
		if got := compact(t, res.Metrics); got != m {
			t.Errorf("cached %v: GET metrics differ from the cache entry's", want)
		}
		if got := compact(t, res.Manifest); got != man {
			t.Errorf("cached %v: GET manifest differs from the cache entry's", want)
		}
		if after := s.Cache().Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
			t.Errorf("reading a job back moved the cache stats: %+v -> %+v", before, after)
		}
	}

	// An entry that no longer verifies is an error, not a result
	// without metrics.
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr := await(t, ts, sub.ID)
	path := filepath.Join(cfg.CacheDir, jr.Results[0].Key[:2], jr.Results[0].Key+".json")
	if err := os.WriteFile(path, []byte(`{"key":"bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET of a job whose entry is corrupt: HTTP %d, want 500", resp.StatusCode)
	}
	if st, _ := s.JobStatus(sub.ID); st.Status != "failed" || len(st.Results) != 0 {
		t.Fatalf("JobStatus of a job whose entry is corrupt = %+v, want failed without results", st)
	}
}

// TestUnstoredResultKept pins the full-disk path: a result whose cache
// write fails stays whole in memory and is answered in full.
func TestUnstoredResultKept(t *testing.T) {
	cfg := testConfig(t)
	var spec runner.PlanSpec
	if err := json.Unmarshal([]byte(planJSON), &spec); err != nil {
		t.Fatal(err)
	}
	_, runs, err := spec.Resolve(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the entry's shard directory belongs fails the Put.
	if err := os.WriteFile(filepath.Join(cfg.CacheDir, runs[0].Key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startServer(t, cfg)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr := await(t, ts, sub.ID)
	if cs := s.Cache().Stats(); cs.Writes != 0 {
		t.Fatalf("cache writes = %d, want 0", cs.Writes)
	}
	if jr.Status != "done" || len(jr.Results) != 1 {
		t.Fatalf("job = %+v, want done with 1 result", jr)
	}
	res := jr.Results[0]
	if res.Metrics.Cycles != runs[0].Cycles || res.Manifest.CountersHash != res.CountersHash ||
		runner.CountersHash(res.Metrics) != res.CountersHash {
		t.Fatalf("unstored result lost its metrics or manifest: cycles %d, manifest hash %q, hash %s",
			res.Metrics.Cycles, res.Manifest.CountersHash, res.CountersHash)
	}
}
