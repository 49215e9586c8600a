package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
	"nocsim/internal/workload"
)

// TestGoldenEpochsJSONL pins the congestion-ledger export bytes for the
// small observed baseline run: one record per controller epoch, every
// input and output of the throttling decision. Any change to the delta
// computation, the decision plumbing, field ordering or float
// formatting shows up here. Re-baseline with -update in the same
// commit as an intentional change.
func TestGoldenEpochsJSONL(t *testing.T) {
	s := runObserved(t)
	var buf bytes.Buffer
	if err := s.Obs().Epochs.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "epochs_golden.jsonl")
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
		t.Errorf("epoch ledger JSONL drifted from golden fixture (%d vs %d bytes); run with -update if intentional",
			buf.Len(), len(want))
	}
}

// runControlled executes the centrally controlled counterpart of the
// observed baseline, ledger only — the config whose throttling
// decisions the ledger exists to record.
func runControlled(t *testing.T) *sim.Sim {
	t.Helper()
	sc := testScale()
	cat, _ := workload.CategoryByName("HML")
	w := workload.Generate(cat, 16, sc.Seed)
	cfg := runner.Controlled(w, 4, 4, sc,
		runner.WithObs(obs.Options{Epochs: true}),
	)
	s := sim.New(cfg)
	s.Run(sc.Cycles)
	return s
}

// TestEpochLedgerContent checks the ledger's semantic shape on the
// centrally controlled baseline: one record per controller epoch at
// the epoch boundary cycle, per-node rows for every node, rates inside
// their physical ranges, and at least one epoch where the controller
// actually ran and decided.
func TestEpochLedgerContent(t *testing.T) {
	s := runControlled(t)
	recs := s.Obs().Epochs.Records()
	sc := testScale()
	if want := int(sc.Cycles / sc.Epoch); len(recs) != want {
		t.Fatalf("got %d epoch records, want %d", len(recs), want)
	}
	ran := false
	for i, r := range recs {
		if r.Epoch != int64(i+1) {
			t.Errorf("record %d: epoch %d, want %d", i, r.Epoch, i+1)
		}
		if r.Cycle != int64(i+1)*sc.Epoch {
			t.Errorf("record %d: cycle %d, want %d", i, r.Cycle, int64(i+1)*sc.Epoch)
		}
		if len(r.Nodes) != 16 {
			t.Fatalf("record %d: %d node rows, want 16", i, len(r.Nodes))
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"utilization", r.Utilization},
			{"deflection_rate", r.DeflectionRate},
			{"starvation_rate", r.StarvationRate},
		} {
			if f.v < 0 || f.v > 1 {
				t.Errorf("record %d: %s %g outside [0,1]", i, f.name, f.v)
			}
		}
		if r.DecisionRan {
			ran = true
			if r.MeanIPF <= 0 {
				t.Errorf("record %d: decision ran with mean IPF %g", i, r.MeanIPF)
			}
		}
		for _, nd := range r.Nodes {
			if nd.Rate < 0 || nd.Rate > 1 {
				t.Errorf("record %d node %d: throttle rate %g outside [0,1]", i, nd.Node, nd.Rate)
			}
		}
	}
	if !ran {
		t.Error("central controller never ran a decision over the whole run")
	}
}

// TestEpochLedgerCSVShape pins the CSV header and the one-row-per-
// epoch-per-node layout.
func TestEpochLedgerCSVShape(t *testing.T) {
	s := runObserved(t)
	var buf bytes.Buffer
	if err := s.Obs().Epochs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	const header = "epoch,cycle,decision_ran,congested,mean_ipf,throttled_nodes,control_packets,utilization,deflection_rate,ejection_rate,starvation_rate,node,ipf,mpki,sigma,rate"
	if lines[0] != header {
		t.Fatalf("CSV header drifted:\n got %s\nwant %s", lines[0], header)
	}
	sc := testScale()
	if want := int(sc.Cycles/sc.Epoch)*16 + 1; len(lines) != want {
		t.Errorf("got %d CSV lines, want %d (header + epochs x nodes)", len(lines), want)
	}
}

// TestEpochLedgerWarmStartIdentity is the ledger's determinism
// contract across execution strategies: the exported bytes must be
// identical whether the run's warm prefix is recomputed inline
// (storeless fork), restored from a checkpoint store, or executed
// under different pool widths — and the manifest must say which
// checkpoint the run forked from.
func TestEpochLedgerWarmStartIdentity(t *testing.T) {
	scale := func() runner.Scale {
		sc := testScale()
		sc.Cycles = 4_000
		sc.Warmup = 2_000
		sc.Obs = obs.Options{SampleInterval: 1_000, Epochs: true}
		return sc
	}
	collect := func(parallel int, useStore bool) (ledger []byte, man obs.Manifest) {
		sc := scale()
		sc.Parallel = parallel
		dir := t.TempDir()
		sc.ObsDir = dir
		if useStore {
			st, err := snap.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			sc.Snapshots = st
		}
		cat, _ := workload.CategoryByName("HML")
		w := workload.Generate(cat, 16, sc.Seed)
		cfg := runner.Controlled(w, 4, 4, sc)
		plan := runner.NewPlan(sc)
		plan.Add("ledger", cfg, sc.Cycles)
		plan.Execute()

		var b bytes.Buffer
		for _, name := range []string{"ledger.epochs.jsonl", "ledger.epochs.csv"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "ledger.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), man
	}

	want, wantMan := collect(1, false)
	if len(want) == 0 {
		t.Fatal("empty ledger export")
	}
	if wantMan.WarmSource == "" || wantMan.WarmSource == "cold" {
		t.Fatalf("warm-forked run reports warm_source %q", wantMan.WarmSource)
	}
	if wantMan.WarmCycle != 2_000 {
		t.Fatalf("warm-forked run reports warm_cycle %d, want 2000", wantMan.WarmCycle)
	}
	for _, v := range []struct {
		name     string
		parallel int
		store    bool
	}{
		{"parallel=8 storeless", 8, false},
		{"parallel=1 store", 1, true},
		{"parallel=8 store", 8, true},
	} {
		got, gotMan := collect(v.parallel, v.store)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ledger bytes differ from baseline (%d vs %d bytes)", v.name, len(got), len(want))
		}
		if gotMan.WarmSource != wantMan.WarmSource || gotMan.WarmCycle != wantMan.WarmCycle {
			t.Errorf("%s: provenance (%s, %d) differs from baseline (%s, %d)", v.name,
				gotMan.WarmSource, gotMan.WarmCycle, wantMan.WarmSource, wantMan.WarmCycle)
		}
		if gotMan.CountersHash != wantMan.CountersHash {
			t.Errorf("%s: counters hash differs", v.name)
		}
	}

	// A cold run of the same configuration without warmup reports cold
	// provenance.
	sc := scale()
	sc.Warmup = 0
	dir := t.TempDir()
	sc.ObsDir = dir
	cat, _ := workload.CategoryByName("HML")
	w := workload.Generate(cat, 16, sc.Seed)
	plan := runner.NewPlan(sc)
	plan.Add("cold", runner.Controlled(w, 4, 4, sc), sc.Cycles)
	plan.Execute()
	raw, err := os.ReadFile(filepath.Join(dir, "cold.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.WarmSource != "cold" || man.WarmCycle != 0 {
		t.Errorf("cold run reports provenance (%s, %d), want (cold, 0)", man.WarmSource, man.WarmCycle)
	}
}
