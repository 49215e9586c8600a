package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// planScale is the small scale the export tests execute at.
func planScale(parallel int, dir string) Scale {
	return Scale{
		Cycles: 4_000, Epoch: 1_000, Seed: 42, Parallel: parallel,
		Obs:    obs.Options{SampleInterval: 1_000, TraceSample: 4, Spatial: true},
		ObsDir: dir,
	}
}

// executePlan runs a two-run observed plan at the given parallelism.
func executePlan(t *testing.T, parallel int, dir string) {
	t.Helper()
	sc := planScale(parallel, dir)
	cat, _ := workload.CategoryByName("HML")
	p := NewPlan(sc)
	for i := 0; i < 2; i++ {
		w := workload.Generate(cat, 16, sc.Seed+uint64(i))
		p.Add("export/w0"+string(rune('0'+i)), Baseline(w, 4, 4, sc), sc.Cycles)
	}
	p.Execute()
}

// TestExportObsWritesEverything checks that an observed plan leaves
// the full export set — time series, trace, grids, manifest — for
// every run, and that the manifest round-trips with a usable config.
func TestExportObsWritesEverything(t *testing.T) {
	dir := t.TempDir()
	executePlan(t, 1, dir)
	for _, label := range []string{"export-w00", "export-w01"} {
		for _, suffix := range []string{
			".samples.jsonl", ".samples.csv", ".trace.json",
			".nodes.csv", ".links.csv", ".manifest.json",
		} {
			path := filepath.Join(dir, label+suffix)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("missing export %s: %v", path, err)
			}
			if fi.Size() == 0 {
				t.Errorf("export %s is empty", path)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, label+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var man obs.Manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatalf("%s manifest does not parse: %v", label, err)
		}
		if man.GoVersion == "" || man.CountersHash == "" || man.Cycles != 4_000 {
			t.Errorf("%s manifest incomplete: %+v", label, man)
		}
		if len(man.Config) == 0 {
			t.Errorf("%s manifest carries no config", label)
		}
	}
}

// TestExportObsParallelInvariant is the harness-level determinism
// contract the CI smoke enforces: every deterministic export byte and
// the manifest counters hash must match between -parallel settings
// (manifests differ only in the wall-clock elapsed_ms field).
func TestExportObsParallelInvariant(t *testing.T) {
	dirSeq, dirPar := t.TempDir(), t.TempDir()
	executePlan(t, 1, dirSeq)
	executePlan(t, 4, dirPar)
	for _, label := range []string{"export-w00", "export-w01"} {
		for _, suffix := range []string{
			".samples.jsonl", ".samples.csv", ".trace.json",
			".nodes.csv", ".links.csv",
		} {
			a, err := os.ReadFile(filepath.Join(dirSeq, label+suffix))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirPar, label+suffix))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s%s differs between -parallel 1 and 4", label, suffix)
			}
		}
		hash := func(dir string) string {
			raw, err := os.ReadFile(filepath.Join(dir, label+".manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var man obs.Manifest
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			return man.CountersHash
		}
		if a, b := hash(dirSeq), hash(dirPar); a != b {
			t.Errorf("%s counters hash differs between -parallel 1 and 4: %s vs %s", label, a, b)
		}
	}
}

// TestExportObsIdempotentDir pins the directory contract: exporting
// into a pre-existing ObsDir (the normal many-runs-one-dir case, and
// any re-run) succeeds, while a non-directory squatting on the path
// fails with a runner:-prefixed wrapped error instead of a bare OS one.
func TestExportObsIdempotentDir(t *testing.T) {
	dir := t.TempDir() // already exists: MkdirAll must be a no-op
	executePlan(t, 1, dir)
	executePlan(t, 1, dir) // re-export over existing files
	if _, err := os.Stat(filepath.Join(dir, "export-w00.manifest.json")); err != nil {
		t.Fatalf("re-export into existing dir lost files: %v", err)
	}

	squat := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(squat, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := planScale(1, squat)
	cat, _ := workload.CategoryByName("HML")
	w := workload.Generate(cat, 16, sc.Seed)
	cfg := Baseline(w, 4, 4, sc)
	cfg.Obs = sc.Obs
	s := sim.New(cfg)
	s.Run(100)
	err := ExportObs(s, squat, "squat", cfg, 0)
	if err == nil {
		t.Fatal("ExportObs succeeded with a file squatting on the obs dir")
	}
	if !strings.HasPrefix(err.Error(), "runner: ") {
		t.Errorf("error %q lacks the runner: prefix", err)
	}
}

// TestSanitizeLabel pins the label-to-filename mapping.
func TestSanitizeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"fig2a/w03", "fig2a-w03"},
		{"rate=0.3 sweep", "rate-0.3-sweep"},
		{"plain-label_1", "plain-label_1"},
		{"", "run"},
	} {
		if got := sanitizeLabel(tc.in); got != tc.want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
