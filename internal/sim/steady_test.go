package sim

import (
	"testing"

	"nocsim/internal/core"
	"nocsim/internal/workload"
)

// headline8x8 is the paper's headline system at test scale: an 8x8
// BLESS mesh of heavy applications with a 1000-cycle controller epoch,
// under ctl.
func headline8x8(ctl ControllerKind) Config {
	cat, _ := workload.CategoryByName("H")
	p := core.DefaultParams()
	p.Epoch = 1000
	return Config{
		Width: 8, Height: 8,
		Apps:       workload.Generate(cat, 64, 3).Apps,
		Controller: ctl,
		Params:     p,
		Seed:       3,
	}
}

// TestClosedLoopSteadyStateAllocs is the closed-loop counterpart of
// stepbench's TestZeroSteadyStateAllocs: after a 20k-cycle warm-up the
// whole system — cores, L1s, reply wheel, fabric, NICs and controller —
// allocates nothing in a cycle that does not end an epoch, and at most
// two objects per epoch crossed: the copy of the controller's rates the
// decision record keeps, plus the rare grow-to-peak of a NIC queue,
// reply-wheel slot or reassembly table reaching a new high-water mark
// (the uncontrolled run measures 2 from those alone). The seeds are
// fixed, so a failure is a real new allocation, not a flake.
func TestClosedLoopSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	for _, ctl := range []ControllerKind{Central, NoControl} {
		t.Run(ctl.String(), func(t *testing.T) {
			cfg := headline8x8(ctl)
			s := New(cfg)
			s.Run(20_000)
			// 20,000 is an epoch boundary, so the next 501 cycles (one
			// warm-up call plus 500 runs) cross none.
			if avg := testing.AllocsPerRun(500, s.Step); avg != 0 {
				t.Errorf("%.2f allocs per non-epoch cycle, want 0", avg)
			}
			s.Run(cfg.Params.Epoch - s.Cycle()%cfg.Params.Epoch)
			if avg := testing.AllocsPerRun(20, func() { s.Run(cfg.Params.Epoch) }); avg > 2 {
				t.Errorf("%.2f allocs per epoch, want at most 2", avg)
			}
		})
	}
}

// BenchmarkSimStep steps the controlled 8x8 headline system in steady
// state, for quick local iteration on the closed-loop hot path (the
// performance record is perfbench's mesh64_H_central).
func BenchmarkSimStep(b *testing.B) {
	s := New(headline8x8(Central))
	s.Run(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.N)*64/b.Elapsed().Seconds(), "node-cycles/s")
}
