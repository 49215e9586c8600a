// Benchmarks: one per table and figure of the paper's evaluation, plus
// the extensions. Each benchmark runs the corresponding
// experiment driver end to end at a reduced scale and reports the
// headline quantity of that figure as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates (a scaled version of) the entire evaluation. Use
// cmd/experiments for full-scale runs and the complete series/rows.
package nocsim

import (
	"testing"

	"nocsim/internal/exp"
	"nocsim/internal/stats"
)

// benchScale keeps each driver in the seconds range. The shapes (who
// wins, signs of the gains) already hold at this scale; absolute
// magnitudes grow toward the paper's at larger -cycles.
func benchScale() exp.Scale {
	return exp.Scale{
		Cycles:    40_000,
		Epoch:     5_000,
		Workloads: 7,
		MaxNodes:  256,
		Seed:      42,
	}
}

// runExp executes a registered experiment driver b.N times.
func runExp(b *testing.B, id string) *exp.Result {
	b.Helper()
	d, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	sc := benchScale()
	var r *exp.Result
	for i := 0; i < b.N; i++ {
		r = d(sc)
	}
	return r
}

func meanY(s exp.Series) float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return stats.Mean(ys)
}

// BenchmarkFig02a — network latency vs utilization (latency stays flat).
func BenchmarkFig02a(b *testing.B) {
	r := runExp(b, "fig2a")
	b.ReportMetric(meanY(r.Series[0]), "mean-latency-cycles")
}

// BenchmarkFig02b — starvation vs utilization (superlinear growth).
func BenchmarkFig02b(b *testing.B) {
	r := runExp(b, "fig2b")
	b.ReportMetric(meanY(r.Series[0]), "mean-starvation")
}

// BenchmarkFig02c — static throttling sweep (throughput peaks mid-sweep).
func BenchmarkFig02c(b *testing.B) {
	r := runExp(b, "fig2c")
	best, first := 0.0, r.Series[0].Points[0].Y
	for _, p := range r.Series[0].Points {
		if p.Y > best {
			best = p.Y
		}
	}
	b.ReportMetric(100*(best-first)/first, "best-static-gain-%")
}

// BenchmarkFig03 — baseline scaling: latency/starvation/IPC vs size.
func BenchmarkFig03(b *testing.B) {
	r := runExp(b, "fig3")
	for _, s := range r.Series {
		if s.Name == "ipc-per-node/H" {
			first := s.Points[0].Y
			last := s.Points[len(s.Points)-1].Y
			b.ReportMetric(100*(first-last)/first, "H-ipc-drop-%")
		}
	}
}

// BenchmarkFig04 — locality sensitivity (IPC falls as hops grow).
func BenchmarkFig04(b *testing.B) {
	r := runExp(b, "fig4")
	pts := r.Series[0].Points
	b.ReportMetric(pts[0].Y/pts[len(pts)-1].Y, "ipc-ratio-1hop-vs-16hop")
}

// BenchmarkFig05 — selective throttling of mcf vs gromacs.
func BenchmarkFig05(b *testing.B) {
	runExp(b, "fig5")
}

// BenchmarkFig06 — application phase behaviour (injection over time).
func BenchmarkFig06(b *testing.B) {
	runExp(b, "fig6")
}

// BenchmarkTable1 — per-application IPF measurement.
func BenchmarkTable1(b *testing.B) {
	r := runExp(b, "table1")
	b.ReportMetric(float64(len(r.Table.Rows)), "applications")
}

// BenchmarkFig07 — throughput-gain scatter (central vs baseline).
func BenchmarkFig07(b *testing.B) {
	r := runExp(b, "fig7")
	best := 0.0
	for _, p := range r.Series[0].Points {
		if p.Y > best {
			best = p.Y
		}
	}
	b.ReportMetric(best, "max-gain-%")
}

// BenchmarkFig08 — gain breakdown by workload category.
func BenchmarkFig08(b *testing.B) {
	runExp(b, "fig8")
}

// BenchmarkFig09 — starvation CDF with/without throttling.
func BenchmarkFig09(b *testing.B) {
	runExp(b, "fig9")
}

// BenchmarkFig10 — weighted-speedup improvement.
func BenchmarkFig10(b *testing.B) {
	r := runExp(b, "fig10")
	best := 0.0
	for _, p := range r.Series[0].Points {
		if p.Y > best {
			best = p.Y
		}
	}
	b.ReportMetric(best, "max-ws-gain-%")
}

// BenchmarkFig11 — (IPF1, IPF2) pair throughput-gain surface.
func BenchmarkFig11(b *testing.B) {
	runExp(b, "fig11")
}

// BenchmarkFig12 — (IPF1, IPF2) baseline-utilization surface.
func BenchmarkFig12(b *testing.B) {
	runExp(b, "fig12")
}

// BenchmarkFig13 — per-node throughput with scale, three architectures.
func BenchmarkFig13(b *testing.B) {
	r := runExp(b, "fig13")
	for _, s := range r.Series {
		if s.Name == "BLESS-Throttling" {
			b.ReportMetric(meanY(s), "throttled-ipc-per-node")
		}
	}
}

// BenchmarkFig14 — network latency with scale.
func BenchmarkFig14(b *testing.B) {
	runExp(b, "fig14")
}

// BenchmarkFig15 — network utilization with scale.
func BenchmarkFig15(b *testing.B) {
	runExp(b, "fig15")
}

// BenchmarkFig16 — power reduction with scale.
func BenchmarkFig16(b *testing.B) {
	r := runExp(b, "fig16")
	for _, s := range r.Series {
		if s.Name == "vs Buffered" {
			b.ReportMetric(meanY(s), "power-reduction-vs-buffered-%")
		}
	}
}

// BenchmarkSensitivity — the §6.4 parameter sweeps.
func BenchmarkSensitivity(b *testing.B) {
	runExp(b, "sens")
}

// BenchmarkEpochSweep — the §6.4 epoch-length sweep.
func BenchmarkEpochSweep(b *testing.B) {
	runExp(b, "epoch")
}

// BenchmarkDistributed — §6.6 central vs distributed coordination.
func BenchmarkDistributed(b *testing.B) {
	runExp(b, "dist")
}

// BenchmarkTorus — the §6.3 torus comparison.
func BenchmarkTorus(b *testing.B) {
	runExp(b, "torus")
}

// BenchmarkLoadLatency — open-loop load-latency curves (substrate
// characterisation, BookSim/NOCulator-style).
func BenchmarkLoadLatency(b *testing.B) {
	runExp(b, "loadlat")
}

// BenchmarkFairness — slowdown metrics with and without throttling
// (§6.2 "Fairness In Throttling", quantified).
func BenchmarkFairness(b *testing.B) {
	runExp(b, "fairness")
}

// BenchmarkWriteback — the write-traffic extension: dirty evictions as
// one-way packets, with and without the controller.
func BenchmarkWriteback(b *testing.B) {
	runExp(b, "wb")
}

// BenchmarkThreads — §7's multithreaded regional-traffic scenario:
// throttling on thread-group hot spots.
func BenchmarkThreads(b *testing.B) {
	runExp(b, "threads")
}

// BenchmarkRings — the hierarchical ring interconnect [21] against the
// mesh fabrics, open loop.
func BenchmarkRings(b *testing.B) {
	runExp(b, "rings")
}
