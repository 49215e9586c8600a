package exp

import (
	"bytes"
	"encoding/json"
	"testing"

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
