package stepbench

import (
	"strings"
	"testing"

	"nocsim/internal/allocs"
	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/chassis"
)

// benchFamily runs every case of one fabric family.
func benchFamily(b *testing.B, family string) {
	for _, c := range Cases() {
		if !strings.HasPrefix(c.Name, family+"/") {
			continue
		}
		c := c
		b.Run(strings.TrimPrefix(c.Name, family+"/"), func(b *testing.B) {
			Bench(b, c)
		})
	}
}

func BenchmarkStepBless(b *testing.B)    { benchFamily(b, "bless") }
func BenchmarkStepBuffered(b *testing.B) { benchFamily(b, "buffered") }
func BenchmarkStepHierRing(b *testing.B) { benchFamily(b, "hierring") }

// TestCasesUnique guards the benchmark matrix and the contended cases:
// sub-benchmark and subtest names must be unique.
func TestCasesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range append(Cases(), contendedCases()...) {
		if seen[c.Name] {
			t.Errorf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestZeroSteadyStateAllocs pins the flit-pool contract: once the pool
// and every queue ring have grown to their high-water marks, stepping
// allocates nothing, in every benchmark case and every contended case.
// Every allocation in the measured cycles fails the case with its
// file:line. The workload is fully deterministic (seeded injector), so
// a failure here is a real hot-path allocation, not a flake.
func TestZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	for _, c := range append(Cases(), contendedCases()...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			net := c.New()
			inj := newInjector(net.Topology().Nodes(), c.rate())
			for i := 0; i < 3*warmup; i++ {
				StepOnce(net, inj)
			}
			sites := allocs.Measure(func() {
				for i := 0; i < 100; i++ {
					StepOnce(net, inj)
				}
			})
			for _, s := range sites {
				t.Errorf("steady-state cycle allocates: %s", s)
			}
		})
	}
}

// poolCycles is how long TestPoolConservation steps each pooled case:
// past the warm-up, so the pool has grown and recycled every slot.
const poolCycles = 3 * warmup

// pooled returns the pooled chassis of net, or nil for a fabric that
// pools no flit (the hierarchical rings).
func pooled(net noc.Network) *chassis.Mesh {
	switch f := net.(type) {
	case *bless.Fabric:
		return &f.Mesh
	case *buffered.Fabric:
		return &f.Mesh
	}
	return nil
}

// checkPool asserts flit-pool conservation at a cycle boundary. No
// pooled fabric drops a flit, and a flit holds its pool slot from
// injection to ejection, so the pool holds exactly one slot per flit in
// flight. Live skips every handle on the free list, so a handle listed
// twice (or the nil handle listed at all) shows as more live slots than
// the free list's length leaves held.
func checkPool(t *testing.T, m *chassis.Mesh) {
	t.Helper()
	held, live := m.Pool.Cap()-m.Pool.FreeSlots(), 0
	m.Pool.Live(func(*noc.Flit) { live++ })
	if int64(held) != m.InFlight() || live != held {
		t.Fatalf("cycle %d: pool holds %d slots (%d live) for %d flits in flight", m.Cycle(), held, live, m.InFlight())
	}
}

// TestPoolConservation is the runtime guard of pool-handle ownership,
// in every pooled benchmark case and contended case: a slot kept past
// its flit's ejection or freed twice breaks checkPool at the end of the
// cycle it happened in, and a handle dropped in transit strands its
// flit, so the fabric never drains.
func TestPoolConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("stepping every pooled case is too slow for -short")
	}
	for _, c := range append(Cases(), contendedCases()...) {
		net := c.New()
		m := pooled(net)
		if m == nil {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			inj := newInjector(net.Topology().Nodes(), c.rate())
			for i := 0; i < poolCycles; i++ {
				StepOnce(net, inj)
				checkPool(t, m)
			}
			for i := 0; !net.Drained(); i++ {
				if i == poolCycles {
					t.Fatalf("not drained %d cycles after injection stopped (%d flits in flight)", i, net.InFlight())
				}
				net.Step()
				checkPool(t, m)
			}
		})
	}
}
