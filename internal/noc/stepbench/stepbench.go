// Package stepbench defines the fabric-stepping benchmark matrix and
// its measurement loop, run by `go test -bench`. It is the only place
// the 32x32 and 64x64 fabrics are timed; the closed-loop simulator and
// the checkpoint codec are timed by perfbench (BENCHMARK.json). Every
// fabric is driven open-loop by the uniform random injector at a fixed
// rate per case — sub-saturation for the timed sizes, contended for the
// cases that reach the bufferless router's optional branches — so a
// benchmark measures the per-cycle hot path (arbitration, routing, link
// commit) under realistic occupancy rather than an idle network.
package stepbench

import (
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/topology"
	"nocsim/internal/traffic"
)

const (
	// defaultRate is the per-node flit injection probability per cycle:
	// busy enough that arbitration contends, below every fabric's
	// saturation at the standard sizes.
	defaultRate = 0.08
	// contended is the rate of the 8x8 cases that exercise the bufferless
	// router's optional branches: past the point where most flits find
	// their productive port free.
	contended = 0.3
	// warmup cycles fill the pipelines — and grow the flit pools and
	// queue rings to their steady-state high-water marks — before
	// timing starts.
	warmup = 1000
	// seed fixes the injector stream so runs are comparable.
	seed = 42
)

// Case is one fabric configuration in the benchmark matrix.
type Case struct {
	// Name is "family/size", e.g. "bless/32x32".
	Name string
	// Rate overrides the per-node injection rate; 0 means defaultRate.
	Rate float64
	// New builds the fabric.
	New func() noc.Network
}

// rate returns the case's effective injection rate.
func (c Case) rate() float64 {
	if c.Rate > 0 {
		return c.Rate
	}
	return defaultRate
}

// Cases returns the benchmark matrix: each fabric family at a small
// and a large size, so both the per-node cost and its scaling with
// node count are visible.
func Cases() []Case {
	mesh := func(k int) *topology.Topology { return topology.NewSquare(topology.Mesh, k) }
	return []Case{
		{Name: "bless/8x8", New: func() noc.Network {
			return bless.New(bless.Config{Topology: mesh(8)})
		}},
		{Name: "bless/32x32", New: func() noc.Network {
			return bless.New(bless.Config{Topology: mesh(32)})
		}},
		// 64x64 runs at a reduced rate: a 64x64 mesh has a 128-link
		// bisection, so the default 0.08 (≈328 injected flits/cycle)
		// is far past saturation and would measure a pathological
		// regime; 0.02 keeps the network busy but stable.
		{Name: "bless/64x64", Rate: 0.02, New: func() noc.Network {
			return bless.New(bless.Config{Topology: mesh(64)})
		}},
		{Name: "buffered/8x8", New: func() noc.Network {
			return buffered.New(buffered.Config{Topology: mesh(8)})
		}},
		{Name: "buffered/32x32", New: func() noc.Network {
			return buffered.New(buffered.Config{Topology: mesh(32)})
		}},
		{Name: "hierring/64", New: func() noc.Network {
			return hierring.New(hierring.Config{Nodes: 64, GroupSize: 8})
		}},
		{Name: "hierring/1024", New: func() noc.Network {
			return hierring.New(hierring.Config{Nodes: 1024, GroupSize: 8})
		}},
	}
}

// contendedCases put the bufferless router's torus wrap links under
// deflection pressure, so TestZeroSteadyStateAllocs steps them at a
// contended rate. They are not benchmark cells.
func contendedCases() []Case {
	return []Case{
		{Name: "bless/8x8-torus", Rate: contended, New: func() noc.Network {
			return bless.New(bless.Config{Topology: topology.NewSquare(topology.Torus, 8)})
		}},
	}
}

// Bench runs one case: warm the fabric, then time
// b.N injector+step cycles. It reports cycles/s (stepping throughput),
// flithops/s (link traversals retired per second, which normalises
// throughput by how much traffic the fabric actually moved), and —
// via ReportAllocs — allocs/op, which must be zero at steady state
// (the warmup grows the flit pools and queue rings to their high-water
// marks; ResetTimer excludes it from the counters).
func Bench(b *testing.B, c Case) {
	net := c.New()
	inj := newInjector(net.Topology().Nodes(), c.rate())
	for i := 0; i < warmup; i++ {
		StepOnce(net, inj)
	}
	start := net.Stats().LinkTraversals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepOnce(net, inj)
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		hops := net.Stats().LinkTraversals - start
		b.ReportMetric(float64(b.N)/elapsed, "cycles/s")
		b.ReportMetric(float64(hops)/elapsed, "flithops/s")
	}
}

// StepOnce advances the open-loop workload one cycle: inject, step,
// and drain every NIC's delivered-packet list, as a closed-loop
// consumer would. Without the drain the lists grow for the whole run
// and their reallocations would show up as steady-state allocations
// that are the harness's fault, not the fabric's.
func StepOnce(net noc.Network, inj *traffic.Injector) {
	inj.Step(net)
	net.Step()
	for i := net.Topology().Nodes() - 1; i >= 0; i-- {
		net.NIC(i).Delivered()
	}
}

// newInjector builds the standard open-loop workload for n nodes.
func newInjector(n int, rate float64) *traffic.Injector {
	return traffic.NewInjector(n, rate, traffic.Uniform{Nodes: n}, seed)
}
