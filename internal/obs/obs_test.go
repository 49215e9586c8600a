// External tests for the observability layer: they drive full
// simulations through the runner presets (so configs flow through the
// sanctioned assembly path) and pin the export-level contracts — a
// golden interval-sampler series, a deterministic counters hash, and
// Chrome trace-event validity. Invariance of every export across
// -parallel settings is pinned in internal/runner.
package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// testScale is the small deterministic scale every test here runs at.
func testScale() runner.Scale {
	return runner.Scale{Cycles: 8_000, Epoch: 1_000, Seed: 42}
}

// observedConfig assembles the baseline 4x4 BLESS run with every
// collector enabled.
func observedConfig() sim.Config {
	sc := testScale()
	cat, _ := workload.CategoryByName("HML")
	w := workload.Generate(cat, 16, sc.Seed)
	return runner.Baseline(w, 4, 4, sc,
		runner.WithObs(obs.Options{
			SampleInterval: 1_000,
			TraceSample:    4,
			Spatial:        true,
			Epochs:         true,
		}),
	)
}

// runObserved executes one observed simulation to the test scale.
func runObserved(t *testing.T) *sim.Sim {
	t.Helper()
	s := sim.New(observedConfig())
	s.Run(testScale().Cycles)
	return s
}

// TestGoldenSamplerJSONL pins the interval-sampler export bytes for a
// small baseline run. The series covers congestion building up on a
// 4x4 HML workload; any change to sampling cadence, delta computation,
// field ordering, or float formatting shows up here. Re-baseline with
// -update in the same commit as an intentional change.
func TestGoldenSamplerJSONL(t *testing.T) {
	s := runObserved(t)
	var buf bytes.Buffer
	if err := s.Obs().Sampler.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "sampler_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("sampler JSONL drifted from golden fixture (%d vs %d bytes); run with -update if intentional",
			buf.Len(), len(want))
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != int(testScale().Cycles/1_000) {
		t.Errorf("expected %d samples, got %d", testScale().Cycles/1_000, n)
	}
}

// TestCountersHashDeterministic pins the manifest hash the CI smoke
// compares across -parallel settings: identical simulations must
// digest identically, and any diverging counter must move the hash.
func TestCountersHashDeterministic(t *testing.T) {
	h := func() string {
		s := runObserved(t)
		m := s.Metrics()
		var retired int64
		for _, r := range m.Retired {
			retired += r
		}
		return obs.HashCounters(m.Net, retired, m.Misses)
	}
	if h1, h2 := h(), h(); h1 != h2 {
		t.Errorf("counters hash differs between identical runs: %s vs %s", h1, h2)
	}
	s := runObserved(t)
	m := s.Metrics()
	perturbed := m.Net
	perturbed.Deflections++
	if obs.HashCounters(m.Net) == obs.HashCounters(perturbed) {
		t.Error("counters hash insensitive to a single diverging event")
	}
}

// chromeTraceDoc mirrors the Chrome trace-event JSON schema the
// exporter must satisfy for Perfetto's legacy ingestion.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   *int64          `json:"ts"`
		Dur  int64           `json:"dur"`
		Pid  *int64          `json:"pid"`
		Tid  *uint64         `json:"tid"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestChromeTraceValid checks the export parses as Chrome trace-event
// JSON with the invariants Perfetto needs: a traceEvents array, known
// phase codes, required fields per phase, and non-negative durations.
func TestChromeTraceValid(t *testing.T) {
	s := runObserved(t)
	var buf bytes.Buffer
	if err := s.Obs().Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents for a traced congested run")
	}
	sawComplete, sawInstant := false, false
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d misses a required field: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			sawComplete = true
			if ev.Dur < 0 {
				t.Fatalf("event %d: negative duration %d", i, ev.Dur)
			}
		case "i":
			sawInstant = true
			if ev.S == "" {
				t.Fatalf("instant event %d misses scope", i)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		if *ev.Ts < 0 {
			t.Fatalf("event %d: negative timestamp %d", i, *ev.Ts)
		}
	}
	if !sawComplete || !sawInstant {
		t.Errorf("trace lacks phase variety: complete=%v instant=%v", sawComplete, sawInstant)
	}
}

// TestTracerSamplingDeterministic pins the packet-selection hash: the
// same sequence numbers must always be sampled, independent of tracer
// instance, and sample=1 must select everything.
func TestTracerSamplingDeterministic(t *testing.T) {
	a := obs.NewTracer(16, 1024, 8)
	b := obs.NewTracer(16, 1024, 8)
	selected := 0
	for seq := uint64(0); seq < 4096; seq++ {
		if a.Sampled(seq) != b.Sampled(seq) {
			t.Fatalf("sampling decision for seq %d differs between instances", seq)
		}
		if a.Sampled(seq) {
			selected++
		}
	}
	// A hash-based 1-in-8 selection over 4096 seqs lands near 512.
	if selected < 256 || selected > 1024 {
		t.Errorf("1/8 sampling selected %d of 4096 packets", selected)
	}
	all := obs.NewTracer(16, 1024, 1)
	for seq := uint64(0); seq < 64; seq++ {
		if !all.Sampled(seq) {
			t.Fatalf("sample=1 must trace every packet, missed seq %d", seq)
		}
	}
}
