package stepbench

import (
	"strings"
	"testing"

	"nocsim/internal/allocs"
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
