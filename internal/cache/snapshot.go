package cache

import "nocsim/internal/snap"

// Checkpoint codec for the L1 model and the stochastic address
// mappers. L1 geometry (sets/ways/masks) is construction-derived; only
// contents, LRU clocks and counters are encoded. The mappers' topology
// and member tables are likewise construction-derived — their only
// mutable state is the per-source random streams (and, for Locality,
// a scratch buffer that every draw rewrites from scratch).

func init() {
	snap.Cover(L1{}, snap.Coverage{
		Serialized: []string{
			"tags", "valid", "dirty", "stamp", "clock",
			"hits", "misses", "writebacks",
		},
		Waived: map[string]string{
			"sets":      "construction: derived from L1Config",
			"ways":      "construction: derived from L1Config",
			"blockBits": "construction: derived from L1Config",
			"setMask":   "construction: derived from L1Config",
		},
	})
	snap.CoverConfig(L1Config{})
	snap.Cover(XORInterleave{}, snap.Coverage{
		Waived: map[string]string{
			"nodes":      "construction: stateless mapper",
			"blockShift": "construction: stateless mapper",
		},
	})
	snap.Cover(Fixed{}, snap.Coverage{
		Waived: map[string]string{
			"Dst": "config: stateless mapper",
		},
	})
	snap.Cover(Locality{}, snap.Coverage{
		Serialized: []string{"srcs"},
		Waived: map[string]string{
			"top":        "construction: topology is config-derived",
			"kind":       "construction: derived from LocalityConfig",
			"mean":       "construction: derived from LocalityConfig",
			"alpha":      "construction: derived from LocalityConfig",
			"blockShift": "construction: derived from LocalityConfig",
			"scratch":    "scratch: truncated to zero length and rebuilt by every draw before any read",
		},
	})
	snap.Cover(Grouped{}, snap.Coverage{
		Serialized: []string{"srcs"},
		Waived: map[string]string{
			"group":   "construction: derived from the group assignment",
			"members": "construction: derived from the group assignment",
		},
	})
}
