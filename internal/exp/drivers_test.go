package exp

import "testing"

// microScale is even smaller than tinyScale, for drivers that run many
// simulations.
func microScale() Scale {
	return Scale{
		Cycles:    8_000,
		Epoch:     2_000,
		Workloads: 7,
		MaxNodes:  16,
		Seed:      2,
	}
}

// runDriver looks up and executes an experiment, failing the test on a
// malformed result.
func runDriver(t *testing.T, id string, sc Scale) *Result {
	t.Helper()
	d, ok := Lookup(id)
	if !ok {
		t.Fatalf("driver %q missing", id)
	}
	r := d(sc)
	if r == nil || r.ID == "" || r.Title == "" {
		t.Fatalf("%s returned malformed result %+v", id, r)
	}
	if len(r.Series) == 0 && r.Table == nil {
		t.Fatalf("%s returned neither series nor table", id)
	}
	return r
}

func TestFig6PhaseSeries(t *testing.T) {
	r := runDriver(t, "fig6", microScale())
	if len(r.Series) != 4 {
		t.Errorf("fig6 series = %d, want 4 applications", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Errorf("fig6 series %s empty", s.Name)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("fig6 negative intensity in %s", s.Name)
			}
		}
	}
}

func TestTable1Measurement(t *testing.T) {
	r := runDriver(t, "table1", microScale())
	if len(r.Table.Rows) != 34 {
		t.Fatalf("table1 rows = %d, want 34 applications", len(r.Table.Rows))
	}
	for _, row := range r.Table.Rows {
		if len(row) != 6 {
			t.Fatalf("table1 row has %d cells: %v", len(row), row)
		}
	}
}

func TestSweepParam(t *testing.T) {
	sc := microScale()
	r, ok := SweepParam("alpha_throt", sc)
	if !ok {
		t.Fatal("alpha_throt sweep missing")
	}
	if len(r.Series) != 1 || len(r.Series[0].Points) != 5 {
		t.Errorf("sweep shape wrong: %+v", r.Series)
	}
	if _, ok := SweepParam("bogus", sc); ok {
		t.Error("unknown parameter accepted")
	}
}

func TestEpochSweepDriver(t *testing.T) {
	r := runDriver(t, "epoch", microScale())
	if len(r.Series[0].Points) == 0 {
		t.Error("epoch sweep empty")
	}
}

func TestDistributedDriver(t *testing.T) {
	r := runDriver(t, "dist", microScale())
	if len(r.Table.Rows) != 5 {
		t.Errorf("dist rows = %d, want 5 workloads", len(r.Table.Rows))
	}
}

func TestTorusDriver(t *testing.T) {
	r := runDriver(t, "torus", microScale())
	if len(r.Table.Rows) != 2 {
		t.Errorf("torus rows = %d, want 2 sizes", len(r.Table.Rows))
	}
}

func TestLoadLatDriver(t *testing.T) {
	r := runDriver(t, "loadlat", microScale())
	// 3 patterns x 2 architectures.
	if len(r.Series) != 6 {
		t.Errorf("loadlat series = %d, want 6", len(r.Series))
	}
	if len(r.Notes) != 3 {
		t.Errorf("loadlat notes = %d, want one saturation note per pattern", len(r.Notes))
	}
}

func TestFairnessDriver(t *testing.T) {
	r := runDriver(t, "fairness", microScale())
	if len(r.Table.Rows) != 3 {
		t.Errorf("fairness rows = %d, want 3 categories", len(r.Table.Rows))
	}
	for _, row := range r.Table.Rows {
		if len(row) != 7 {
			t.Fatalf("fairness row cells = %d, want 7", len(row))
		}
	}
}

func TestWritebackDriver(t *testing.T) {
	r := runDriver(t, "wb", microScale())
	if len(r.Table.Rows) != 3 {
		t.Errorf("wb rows = %d, want 3 configs", len(r.Table.Rows))
	}
}

func TestFig4Driver(t *testing.T) {
	sc := microScale()
	r := runDriver(t, "fig4", sc)
	if len(r.Series[0].Points) != 5 {
		t.Errorf("fig4 points = %d, want 5 hop distances", len(r.Series[0].Points))
	}
}

func TestFig3Driver(t *testing.T) {
	sc := microScale()
	r := runDriver(t, "fig3", sc)
	// 2 intensities x 3 metrics.
	if len(r.Series) != 6 {
		t.Errorf("fig3 series = %d, want 6", len(r.Series))
	}
}

func TestRingsDriver(t *testing.T) {
	r := runDriver(t, "rings", microScale())
	if len(r.Series) != 3 {
		t.Errorf("rings series = %d, want 3 fabrics", len(r.Series))
	}
}
