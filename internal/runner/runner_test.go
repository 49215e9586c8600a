package runner

import (
	"fmt"
	"reflect"
	"testing"

	"nocsim/internal/app"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

func testScale() Scale {
	return Scale{
		Cycles:    6_000,
		Epoch:     2_000,
		Workloads: 4,
		MaxNodes:  64,
		Seed:      9,
	}
}

func testWorkload(n int) workload.Workload {
	return workload.Uniform(app.MustByName("mcf"), n)
}

// buildPlan declares a small mixed plan: different controllers, cycles
// and seeds, so misordered results cannot collide.
func buildPlan(sc Scale) *Plan {
	w := testWorkload(16)
	p := NewPlan(sc)
	p.Add("base", Baseline(w, 4, 4, sc), sc.Cycles)
	p.Add("ctl", Controlled(w, 4, 4, sc), sc.Cycles)
	p.Add("static", Baseline(w, 4, 4, sc, WithStaticUniform(0.5)), sc.Cycles+2_000)
	p.Add("seeded", Baseline(w, 4, 4, sc, WithSeed(77)), sc.Cycles)
	return p
}

func TestExecuteDeterministicAcrossPools(t *testing.T) {
	var first []sim.Metrics
	var firstStats []Stat
	for _, parallel := range []int{1, 4, 8} {
		sc := testScale()
		sc.Parallel = parallel
		p := buildPlan(sc)
		ms := p.Execute()
		if parallel == 1 {
			first = ms
			firstStats = p.Stats()
			continue
		}
		if !reflect.DeepEqual(ms, first) {
			t.Errorf("parallel=%d metrics differ from sequential", parallel)
		}
		for i, s := range p.Stats() {
			if s.Label != firstStats[i].Label || s.Cycles != firstStats[i].Cycles || s.Nodes != firstStats[i].Nodes {
				t.Errorf("parallel=%d stat %d = %+v, want %+v", parallel, i, s, firstStats[i])
			}
		}
	}
}

func TestExecuteOrderAndStats(t *testing.T) {
	sc := testScale()
	sc.Parallel = 4
	p := buildPlan(sc)
	ms := p.Execute()
	if len(ms) != 4 {
		t.Fatalf("got %d metrics, want 4", len(ms))
	}
	// The third run is 2000 cycles longer: result order must follow
	// declaration order, not completion order.
	if ms[2].Cycles != sc.Cycles+2_000 {
		t.Errorf("run 2 simulated %d cycles, want %d", ms[2].Cycles, sc.Cycles+2_000)
	}
	stats := p.Stats()
	wantLabels := []string{"base", "ctl", "static", "seeded"}
	for i, s := range stats {
		if s.Label != wantLabels[i] {
			t.Errorf("stat %d label %q, want %q", i, s.Label, wantLabels[i])
		}
		if s.Nodes != 16 {
			t.Errorf("stat %d nodes = %d, want 16", i, s.Nodes)
		}
		if s.Elapsed <= 0 {
			t.Errorf("stat %d elapsed not recorded", i)
		}
	}
}

func TestExecuteEmptyPlan(t *testing.T) {
	p := NewPlan(testScale())
	if ms := p.Execute(); len(ms) != 0 {
		t.Errorf("empty plan returned %d metrics", len(ms))
	}
}

func TestObserveStride(t *testing.T) {
	sc := testScale()
	sc.Parallel = 2
	w := testWorkload(16)
	p := NewPlan(sc)
	var windows []int64
	p.AddRun(Run{
		Label:  "strided",
		Config: Baseline(w, 4, 4, sc),
		Cycles: 6_000,
		Stride: 2_000,
		Observe: func(s *sim.Sim) {
			windows = append(windows, s.Cycle())
		},
	})
	ms := p.Execute()
	want := []int64{2_000, 4_000, 6_000}
	if !reflect.DeepEqual(windows, want) {
		t.Errorf("observe windows = %v, want %v", windows, want)
	}
	if ms[0].Cycles != 6_000 {
		t.Errorf("strided run simulated %d cycles, want 6000", ms[0].Cycles)
	}
}

func TestObserveAtEnd(t *testing.T) {
	sc := testScale()
	w := testWorkload(16)
	p := NewPlan(sc)
	calls := 0
	p.AddRun(Run{
		Label:   "end",
		Config:  Baseline(w, 4, 4, sc),
		Cycles:  4_000,
		Observe: func(s *sim.Sim) { calls++ },
	})
	p.Execute()
	if calls != 1 {
		t.Errorf("observe called %d times, want 1", calls)
	}
}

func TestMapOrder(t *testing.T) {
	sc := testScale()
	sc.Parallel = 8
	got := Map(sc, 20, func(i int) string { return fmt.Sprintf("r%d", i) })
	for i, v := range got {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("Map[%d] = %q: order not preserved", i, v)
		}
	}
}

func TestPoolBounds(t *testing.T) {
	sc := Scale{Parallel: 8}
	if got := sc.pool(3); got != 3 {
		t.Errorf("pool clamps to run count: got %d, want 3", got)
	}
	sc.Parallel = 0
	if got := sc.pool(1); got != 1 {
		t.Errorf("pool(1) = %d, want 1", got)
	}
}

func TestPresets(t *testing.T) {
	sc := testScale()
	w := testWorkload(16)
	cfg := Baseline(w, 4, 4, sc)
	if cfg.Controller != sim.NoControl || cfg.Seed != sc.Seed^w.Seed {
		t.Errorf("baseline preset wrong: %+v", cfg)
	}
	if cfg.Params.Epoch != sc.Epoch {
		t.Errorf("preset epoch = %d, want %d", cfg.Params.Epoch, sc.Epoch)
	}
	ctl := Controlled(w, 4, 4, sc)
	if ctl.Controller != sim.Central {
		t.Error("controlled preset must select the central mechanism")
	}
	// Later options win, including over Controlled's own controller.
	open := Controlled(w, 4, 4, sc, WithController(sim.NoControl))
	if open.Controller != sim.NoControl {
		t.Error("options must apply after the preset's defaults")
	}
	rates := []float64{1: 0.9, 15: 0}
	per := Baseline(w, 4, 4, sc, WithStaticRates(rates), WithSeed(3))
	if per.Controller != sim.StaticPerNode || per.Seed != 3 || len(per.StaticRates) != 16 {
		t.Errorf("option stack wrong: %+v", per)
	}
}
