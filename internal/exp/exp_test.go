package exp

import (
	"bytes"
	"strings"
	"testing"
)

// tinyScale keeps every driver fast enough for unit testing while still
// exercising the full pipeline.
func tinyScale() Scale {
	return Scale{
		Cycles:    20_000,
		Epoch:     4_000,
		Workloads: 7,
		MaxNodes:  64,
		Seed:      1,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5", "fig6",
		"table1", "table2", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"sens", "epoch", "dist", "torus",
		"loadlat", "fairness", "wb", "threads", "rings",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(ids), len(want))
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestScales(t *testing.T) {
	d := DefaultScale()
	if d.Cycles <= 0 || d.Epoch <= 0 || d.Workloads <= 0 || d.MaxNodes < 64 {
		t.Errorf("bad default scale %+v", d)
	}
	p := PaperScale()
	if p.Cycles != 10_000_000 || p.Epoch != 100_000 || p.Workloads != 875 || p.MaxNodes != 4096 {
		t.Errorf("paper scale drifted from §6.1: %+v", p)
	}
}

func TestRenderTable(t *testing.T) {
	r := &Result{
		ID:    "x",
		Title: "T",
		Table: &Table{Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}},
		Notes: []string{"n1"},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	r := &Result{
		ID: "y", Title: "S", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s1", Points: []Point{{1, 2}}}},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), `series "s1"`) {
		t.Error("series header missing")
	}
}

func TestFig2Family(t *testing.T) {
	sc := tinyScale()
	for _, id := range []string{"fig2a", "fig2b"} {
		d, _ := Lookup(id)
		r := d(sc)
		if len(r.Series) != 1 || len(r.Series[0].Points) != sc.Workloads {
			t.Errorf("%s: %d points, want %d", id, len(r.Series[0].Points), sc.Workloads)
		}
		for _, p := range r.Series[0].Points {
			if p.X < 0 || p.X > 1 {
				t.Errorf("%s: utilization %v out of range", id, p.X)
			}
		}
	}
}

func TestFig2cSweepShape(t *testing.T) {
	d, _ := Lookup("fig2c")
	r := d(tinyScale())
	if len(r.Series[0].Points) != 10 {
		t.Fatalf("fig2c has %d points, want 10 rates", len(r.Series[0].Points))
	}
	for _, p := range r.Series[0].Points {
		if p.Y <= 0 {
			t.Error("throughput must be positive at every throttle rate")
		}
	}
}

func TestFig5Shape(t *testing.T) {
	d, _ := Lookup("fig5")
	r := d(tinyScale())
	if r.Table == nil || len(r.Table.Rows) != 3 {
		t.Fatalf("fig5 table malformed: %+v", r.Table)
	}
	if len(r.Notes) != 4 {
		t.Errorf("fig5 notes = %d, want 4 comparisons", len(r.Notes))
	}
}

func TestTable2Static(t *testing.T) {
	d, _ := Lookup("table2")
	r := d(Scale{})
	if r.Table == nil || len(r.Table.Rows) < 10 {
		t.Error("table2 must list the system parameters")
	}
}

func TestFig11GridShape(t *testing.T) {
	sc := tinyScale()
	sc.Cycles = 10_000
	sc.Epoch = 2_000
	d, _ := Lookup("fig12")
	r := d(sc)
	if r.Table == nil || len(r.Table.Rows) != len(ipfGrid) {
		t.Fatalf("fig12 table has %d rows, want %d", len(r.Table.Rows), len(ipfGrid))
	}
	for _, row := range r.Table.Rows {
		if len(row) != len(ipfGrid)+1 {
			t.Fatalf("fig12 row has %d cells, want %d", len(row), len(ipfGrid)+1)
		}
	}
}

func TestScalingFigsShareRuns(t *testing.T) {
	sc := tinyScale()
	sc.MaxNodes = 64 // 4x4 and 8x8 only
	d13, _ := Lookup("fig13")
	r13 := d13(sc)
	if len(r13.Series) != 3 {
		t.Fatalf("fig13 series = %d, want 3 architectures", len(r13.Series))
	}
	for _, s := range r13.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d sizes, want 2 at MaxNodes=64", s.Name, len(s.Points))
		}
	}
	// fig16 must reuse the memoized runs (fast) and have both baselines.
	d16, _ := Lookup("fig16")
	r16 := d16(sc)
	if len(r16.Series) != 2 {
		t.Errorf("fig16 series = %d, want 2 baselines", len(r16.Series))
	}
}

func TestMeshSizesRespectCap(t *testing.T) {
	sc := Scale{MaxNodes: 256}
	for _, k := range meshSizes(sc) {
		if k*k > 256 {
			t.Errorf("mesh %dx%d exceeds cap", k, k)
		}
	}
	if len(meshSizes(Scale{MaxNodes: 4096})) != 5 {
		t.Error("full scale must include all five sizes")
	}
}
