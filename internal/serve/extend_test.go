package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"nocsim/internal/serve"
)

// TestExtendResumesFromCheckpoint covers the extend-run path end to
// end: a finished job's runs are re-queued with a larger cycle budget,
// the daemon resumes each from its final-state checkpoint, and the
// extended result is byte-identical (counters hash) to submitting the
// longer plan cold on a daemon without a checkpoint store.
func TestExtendResumesFromCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapDir = t.TempDir()
	s, ts := startServer(t, cfg)

	sub := submit(t, ts, planJSON, http.StatusAccepted)
	first := await(t, ts, sub.ID)
	if first.Status != "done" {
		t.Fatalf("seed job failed: %s", first.Error)
	}
	if st := s.Snapshots().Stats(); st.Writes == 0 {
		t.Fatal("finished run left no checkpoint")
	}

	// Extend by 1000 cycles: a new job, resumed from the checkpoint.
	before := s.Snapshots().Stats()
	body := bytes.NewReader([]byte(`{"cycles": 1000}`))
	resp, err := http.Post(ts.URL+"/v1/runs/"+sub.ID+"/extend", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var ext serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ext); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("extend: HTTP %d", resp.StatusCode)
	}
	if ext.ID == sub.ID {
		t.Fatal("extend reused the original job id")
	}
	extended := await(t, ts, ext.ID)
	if extended.Status != "done" {
		t.Fatalf("extended job failed: %s", extended.Error)
	}
	if after := s.Snapshots().Stats(); after.Hits <= before.Hits {
		t.Error("extended run never hit the checkpoint store")
	}
	if got, want := extended.Results[0].Metrics.Cycles, first.Results[0].Metrics.Cycles+1000; got != want {
		t.Errorf("extended run covered %d cycles, want %d", got, want)
	}

	// Reference: the longer plan cold, on a storeless daemon.
	coldPlan := strings.Replace(planJSON, `"cycles": 2000`, `"cycles": 3000`, 1)
	_, ts2 := startServer(t, testConfig(t))
	sub2 := submit(t, ts2, coldPlan, http.StatusAccepted)
	cold := await(t, ts2, sub2.ID)
	if cold.Status != "done" {
		t.Fatalf("cold reference failed: %s", cold.Error)
	}
	if extended.Results[0].CountersHash != cold.Results[0].CountersHash {
		t.Errorf("extended counters hash %s != cold %s",
			extended.Results[0].CountersHash, cold.Results[0].CountersHash)
	}

	// Extending a non-terminal or unknown job is rejected.
	resp, err = http.Post(ts.URL+"/v1/runs/no-such-job/extend", "application/json",
		strings.NewReader(`{"cycles": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("extend of unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/runs/"+sub.ID+"/extend", "application/json",
		strings.NewReader(`{"cycles": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("extend by 0 cycles: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSnapMetrics checks that /metrics carries the checkpoint store's
// hit/miss/corruption lines when a store is configured, and omits them
// otherwise.
func TestSnapMetrics(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapDir = t.TempDir()
	_, ts := startServer(t, cfg)

	sub := submit(t, ts, planJSON, http.StatusAccepted)
	await(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nocd_snap_entries ", "nocd_snap_bytes ",
		"nocd_snap_hits_total ", "nocd_snap_misses_total ",
		"nocd_snap_writes_total ", "nocd_snap_corrupt_total ",
		"nocd_snap_evicted_total ",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(string(page), "nocd_snap_writes_total 1") {
		t.Errorf("expected one checkpoint write recorded, got page:\n%s", page)
	}

	_, ts2 := startServer(t, testConfig(t))
	resp, err = http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(page), "nocd_snap_") {
		t.Error("storeless daemon reports nocd_snap_ metrics")
	}
}
