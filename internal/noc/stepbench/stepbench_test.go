package stepbench

import (
	"strings"
	"testing"
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

// TestCasesUnique guards the benchmark matrix: sub-benchmark names
// must be unique.
func TestCasesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Errorf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestZeroSteadyStateAllocs pins the flit-pool contract: once the pool
// and every queue ring have grown to their high-water marks, stepping
// allocates nothing. The workload is fully deterministic (seeded
// injector), so a failure here is a real hot-path allocation, not a
// flake.
func TestZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			net := c.New()
			inj := newInjector(net.Topology().Nodes(), c.rate())
			for i := 0; i < 3*warmup; i++ {
				StepOnce(net, inj)
			}
			if avg := testing.AllocsPerRun(100, func() { StepOnce(net, inj) }); avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state cycle, want 0", c.Name, avg)
			}
		})
	}
}
