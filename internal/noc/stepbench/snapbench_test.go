package stepbench

import (
	"bytes"
	"testing"

	"nocsim/internal/sim"
)

// benchSnapFamily runs every checkpoint case through one codec
// direction.
func benchSnapFamily(b *testing.B, bench func(*testing.B, SnapCase)) {
	for _, c := range SnapCases() {
		c := c
		b.Run(c.Name, func(b *testing.B) { bench(b, c) })
	}
}

func BenchmarkSnapshot(b *testing.B) { benchSnapFamily(b, BenchSnapshot) }
func BenchmarkRestore(b *testing.B)  { benchSnapFamily(b, BenchRestore) }

// TestSnapCasesRoundTrip guards the matrix cmd/benchjson iterates: every
// case must snapshot, restore, and re-encode to the identical blob. The
// deep byte-identity properties live in internal/sim; this is only the
// smoke that keeps the benchmark configurations valid as the codec
// evolves.
func TestSnapCasesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range SnapCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if seen[c.Name] {
				t.Fatalf("duplicate case %q", c.Name)
			}
			seen[c.Name] = true
			if testing.Short() && c.Name == "snap-bless/32x32" {
				t.Skip("1024-node warmup is too slow for -short")
			}
			s := sim.New(c.Config)
			s.Run(snapWarm)
			blob := s.Snapshot()
			r, err := sim.Restore(c.Config, blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if again := r.Snapshot(); !bytes.Equal(again, blob) {
				t.Errorf("restored state re-encodes to %d bytes != original %d", len(again), len(blob))
			}
		})
	}
}
