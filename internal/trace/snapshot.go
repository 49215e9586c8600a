package trace

import "nocsim/internal/snap"

// Checkpoint codec for the synthetic instruction generator. The
// calibration outputs (memFrac, pMiss, hot set, stream base) are pure
// functions of the Config, so a restored generator recomputes them in
// New and only the dynamic stream position is encoded: the next stream
// block is the one after the misses counted so far. New consumes two
// RNG draws (initial phase and dwell); Decode overwrites the RNG state
// after construction, so those draws leave no trace.

func init() {
	snap.Cover(Generator{}, snap.Coverage{
		Serialized: []string{"r", "phase", "dwell", "insns", "misses"},
		Waived: map[string]string{
			"cfg":     "construction: derived from sim.Config",
			"memFrac": "construction: calibrated from cfg.Profile in New",
			"pMiss":   "construction: calibrated from cfg.Profile in New",
			"hot":     "construction: computed from cfg.AddrBase in New",
			"stream":  "construction: computed from cfg.AddrBase in New",
		},
	})
	snap.Cover(Instr{}, snap.Coverage{
		Serialized: []string{"IsMem", "IsStore", "Addr"},
	})
	snap.CoverConfig(Config{})
}

// DecodeSnap checks the one decoded field the generator indexes by.
func (g *Generator) DecodeSnap(r *snap.Reader) {
	if g.phase != 0 && g.phase != 1 {
		r.Failf("trace phase %d, want 0 or 1", g.phase)
	}
}
