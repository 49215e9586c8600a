package cache

import "nocsim/internal/snap"

// Checkpoint codec for the L1 model and the stochastic address
// mappers. L1 geometry and layout (sets/ways/masks, hot run, stream
// base) are construction-derived; only the hot sets' line words (tag,
// LRU rank, dirty and valid bits), the stream counter and the stream
// dirty ring are encoded. The mappers' topology and member tables are
// likewise construction-derived — their only mutable state is the
// per-source random streams (and, for Locality, a scratch buffer that
// every draw rewrites from scratch).

func init() {
	layout := "construction: derived from L1Config and the trace layout"
	snap.Cover(L1{}, snap.Coverage{
		Serialized: []string{"lines", "streamed", "dirty"},
		Waived: map[string]string{
			"ways":        layout,
			"blockBits":   layout,
			"setBits":     layout,
			"setMask":     layout,
			"shift":       layout,
			"hotBlock":    layout,
			"hotBlocks":   layout,
			"hotSet":      layout,
			"hotSets":     layout,
			"streamBlock": layout,
			"fifoSpan":    layout,
			"ringMask":    layout,
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

// DecodeSnap checks what a miss relies on: the ranks of every set with
// line words are a permutation of 0..ways-1, so each such set has
// exactly one LRU way to evict.
func (c *L1) DecodeSnap(r *snap.Reader) {
	ranks := c.ranks()
	seen := make([]bool, c.ways)
	for base := 0; base < len(c.lines); base += c.ways {
		clear(seen)
		for _, l := range c.lines[base : base+c.ways] {
			rank := (l & ranks) >> rankShift
			if rank >= uint64(c.ways) || seen[rank] {
				r.Failf("cache set %d ranks are not a permutation of 0..%d",
					(c.hotSet+uint64(base/c.ways))&c.setMask, c.ways-1)
				return
			}
			seen[rank] = true
		}
	}
}
