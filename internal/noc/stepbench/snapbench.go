// Checkpoint codec benchmarks: what a full-simulator snapshot costs to
// encode, what a restore costs to rebuild, and how large the blob the
// store must hold is. The matrix mirrors the byte-identity test cases —
// one configuration per fabric family, with cores, caches and
// collectors attached — because codec cost is dominated by the state
// the fabric family actually carries (pipeline registers vs VC buffers
// vs ring bridges), not by the stepping hot path.
package stepbench

import (
	"testing"

	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// snapWarm is how many cycles each simulator runs before the codec is
// measured: long enough that queues, pools and starvation windows hold
// realistic state, short enough that the matrix stays cheap.
const snapWarm = 500

// SnapCase is one full-simulator configuration in the checkpoint
// benchmark matrix.
type SnapCase struct {
	// Name is "family/size", e.g. "snap-bless/8x8".
	Name string
	// Config assembles the simulator; the codec serializes everything
	// reachable from it.
	Config sim.Config
}

// SnapCases returns the checkpoint matrix: each fabric family at the
// standard small size, plus one large bless mesh so the blob-size and
// encode-cost scaling with node count is visible. Configurations come
// from the runner presets (Table 2 defaults, standard seeding) so the
// codec is measured against exactly the state a real experiment run
// carries.
func SnapCases() []SnapCase {
	cfg := func(width, height int, opts ...runner.Option) sim.Config {
		sc := runner.DefaultScale()
		sc.Epoch = 64
		cat, _ := workload.CategoryByName("HM")
		w := workload.Generate(cat, width*height, sc.Seed)
		opts = append(opts, runner.WithWritebacks())
		return runner.Controlled(w, width, height, sc, opts...)
	}
	return []SnapCase{
		{Name: "snap-bless/8x8", Config: cfg(8, 8)},
		{Name: "snap-bless/32x32", Config: cfg(32, 32)},
		{Name: "snap-buffered/8x8", Config: cfg(8, 8, runner.WithRouter(sim.Buffered))},
		{Name: "snap-hierring/64", Config: cfg(8, 8, runner.WithRouter(sim.HierRing), runner.WithRingGroup(8))},
	}
}

// BenchSnapshot times the full-state encoder against a warmed
// simulator. SetBytes makes `go test -bench` report encode bandwidth;
// the blob_bytes metric records the checkpoint size the store pays per
// entry. Snapshot is read-only modulo the idempotent policy flush, so
// re-encoding the same state every iteration is sound.
func BenchSnapshot(b *testing.B, c SnapCase) {
	s := sim.New(c.Config)
	s.Run(snapWarm)
	blob := s.Snapshot()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot()
	}
	b.ReportMetric(float64(len(blob)), "blob_bytes")
}

// BenchRestore times rebuilding a live simulator from a blob: the full
// cost a warm-started run pays before its first stepped cycle.
func BenchRestore(b *testing.B, c SnapCase) {
	s := sim.New(c.Config)
	s.Run(snapWarm)
	blob := s.Snapshot()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Restore(c.Config, blob); err != nil {
			b.Fatal(err)
		}
	}
}
