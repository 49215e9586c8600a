package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/plot"
	"nocsim/internal/rng"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// TestParallelismInvariance is the harness's core contract: a driver's
// rendered Result — text and JSON — is byte-identical no matter how
// many simulations the executor keeps in flight. fig2c is the probe
// because it is multi-run (10 simulations) and unmemoized, so both
// invocations genuinely re-execute.
func TestParallelismInvariance(t *testing.T) {
	render := func(parallel int) (text, js []byte) {
		sc := tinyScale()
		sc.Cycles = 10_000
		sc.Epoch = 2_000
		sc.Parallel = parallel
		d, ok := Lookup("fig2c")
		if !ok {
			t.Fatal("fig2c missing")
		}
		r := d(sc)
		var buf bytes.Buffer
		r.Render(&buf)
		j, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), j
	}

	text1, js1 := render(1)
	text8, js8 := render(8)
	if !bytes.Equal(text1, text8) {
		t.Errorf("rendered text differs between parallel=1 and parallel=8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", text1, text8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("rendered JSON differs between parallel=1 and parallel=8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", js1, js8)
	}
}

// TestWorkerInvarianceAcrossFabrics pins the execution engine's
// determinism contract on every fabric variant with a distinct hot
// path: metrics must be byte-identical whatever the number of pool
// workers — one simulation at a time (Parallel=1) or eight in flight
// (Parallel=8).
func TestWorkerInvarianceAcrossFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("six 256-node simulations")
	}
	cat, _ := workload.CategoryByName("HML")
	w := workload.Generate(cat, 256, 7)
	variants := []struct {
		name string
		opts []runner.Option
	}{
		{"bless", nil},
		{"buffered", []runner.Option{runner.WithRouter(sim.Buffered)}},
		{"hierring", []runner.Option{runner.WithRingGroup(8)}},
	}
	run := func(parallel int) ([]sim.Metrics, []byte) {
		sc := tinyScale()
		sc.Parallel = parallel
		plan := runner.NewPlan(sc)
		for _, v := range variants {
			plan.Add(v.name, runner.Baseline(w, 16, 16, sc, v.opts...), 1_500)
		}
		ms := plan.Execute()
		js, err := json.MarshalIndent(ms, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return ms, js
	}
	seq, seqJS := run(1)
	par, parJS := run(8)
	if !bytes.Equal(seqJS, parJS) {
		for i := range variants {
			a, _ := json.Marshal(seq[i])
			b, _ := json.Marshal(par[i])
			if !bytes.Equal(a, b) {
				t.Errorf("%s: metrics differ between parallel=1 and parallel=8:\nseq: %s\npar: %s",
					variants[i].name, a, b)
			}
		}
	}
}

// The determinism oracle. Go starts every map range at a random slot,
// so doing the same work twice in one process tests for any map whose
// iteration order reaches a result or an export, in any package. A
// range that runs once over a few keys can repeat its order by luck;
// the typed maprange rule of invariants_test.go covers that case.

// oracleSpec draws one small random run. Spec i takes fabric i%3 and
// preset i/3%3, so nine specs cover every pair; the rest is drawn.
func oracleSpec(r *rng.Source, i int) runner.RunSpec {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	s := runner.RunSpec{
		Label:    fmt.Sprintf("oracle/%02d", i),
		Router:   []string{"bless", "buffered", "hierring"}[i%3],
		Preset:   []string{"baseline", "controlled", "static"}[i/3%3],
		Workload: pick("H", "M", "L", "HML", "HM", "HL", "ML"),
		Width:    4 << r.Intn(2),
		Seed:     1 + uint64(r.Intn(1_000)),
		Mapping:  pick("xor", "exp", "pow"),
		Cycles:   int64(2_000 + 1_000*r.Intn(4)),
	}
	if s.Mapping != "xor" {
		s.MeanHops = 1 + 2*r.Float64()
	}
	if s.Preset == "static" {
		s.StaticRate = 0.2 + 0.6*r.Float64()
	}
	return s
}

// oracleOutput is one named artefact of an oracle pass.
type oracleOutput struct {
	name string
	data []byte
}

// elapsedField is the manifest's one wall-clock field.
var elapsedField = regexp.MustCompile(`"elapsed_ms": [^,\n]*`)

// oracleRuns executes specs as one observed plan and returns each run's
// counters hash and metrics JSON, then every obs export file.
func oracleRuns(t *testing.T, specs []runner.RunSpec, parallel int) []oracleOutput {
	dir := t.TempDir()
	sc := Scale{
		Cycles: 4_000, Epoch: 1_000, Seed: 37, Parallel: parallel, ObsDir: dir,
		Obs: obs.Options{SampleInterval: 500, TraceSample: 4, Spatial: true, Epochs: true},
	}
	plan := runner.NewPlan(sc)
	for _, s := range specs {
		cfg, cycles, err := s.Resolve(sc)
		if err != nil {
			t.Fatal(err)
		}
		plan.Add(s.Label, cfg, cycles)
	}
	var out []oracleOutput
	for i, m := range plan.Execute() {
		js, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleOutput{specs[i].Label + " counters hash", []byte(runner.CountersHash(m))},
			oracleOutput{specs[i].Label + " metrics", js})
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleOutput{e.Name(), elapsedField.ReplaceAll(b, nil)})
	}
	return out
}

// oracleRender renders every registered driver at microScale, from
// cold memos, as the text, JSON and plot that cmd/experiments prints.
func oracleRender(t *testing.T) []oracleOutput {
	fig2Mu.Lock()
	fig2Memo = map[string]*fig2Data{}
	fig2Mu.Unlock()
	gainMu.Lock()
	gainMemo = map[string]*gainData{}
	gainMu.Unlock()
	aloneMu.Lock()
	aloneMemo = map[string]float64{}
	aloneMu.Unlock()
	scalingMu.Lock()
	scalingMemo = map[string]*scalingData{}
	scalingMu.Unlock()
	var out []oracleOutput
	for _, id := range IDs() {
		r := runDriver(t, id, microScale())
		var buf bytes.Buffer
		r.Render(&buf)
		var ps []plot.Series
		for _, s := range r.Series {
			pts := make([][2]float64, len(s.Points))
			for i, p := range s.Points {
				pts[i] = [2]float64{p.X, p.Y}
			}
			ps = append(ps, plot.Series{Name: s.Name, Points: pts})
		}
		if len(ps) > 0 {
			if err := plot.Render(&buf, plot.Config{XLabel: r.XLabel, YLabel: r.YLabel}, ps...); err != nil {
				t.Fatal(err)
			}
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleOutput{id + " text", buf.Bytes()}, oracleOutput{id + " JSON", js})
	}
	return out
}

// sameOutputs fails the test at the first artefact that differs.
func sameOutputs(t *testing.T, what string, a, b []oracleOutput) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d artefacts vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].name != b[i].name || !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("%s: %s differs:\n--- first ---\n%s\n--- second (%s) ---\n%s",
				what, a[i].name, a[i].data, b[i].name, b[i].data)
		}
	}
}

// TestDeterminismOracle runs random small specs three times — twice at
// Parallel 1, once at Parallel 4 — and renders every driver twice; all
// bytes must match. -short runs the specs only.
func TestDeterminismOracle(t *testing.T) {
	r := rng.New(37)
	specs := make([]runner.RunSpec, 9)
	for i := range specs {
		specs[i] = oracleSpec(r, i)
	}
	ref := oracleRuns(t, specs, 1)
	sameOutputs(t, "second run at Parallel 1", ref, oracleRuns(t, specs, 1))
	sameOutputs(t, "run at Parallel 4", ref, oracleRuns(t, specs, 4))
	if testing.Short() {
		t.Skip("every driver rendered twice")
	}
	sameOutputs(t, "second render", oracleRender(t), oracleRender(t))
}
