package cpu

import "nocsim/internal/snap"

// Checkpoint codec for the core model. Decode overlays a freshly
// constructed Core: id, cfg and backend come from construction;
// everything the core mutates while stepping is encoded, including the
// instruction source through its own registration.

func init() {
	snap.Cover(Core{}, snap.Coverage{
		Serialized: []string{
			"head", "count", "readyAt", "tokens",
			"pending", "hasPending", "retired", "stalled", "gen",
		},
		Waived: map[string]string{
			"id":      "construction: node id is part of the config",
			"cfg":     "construction: defaulted Config is derived from sim.Config",
			"backend": "construction: wired to the restored memory system",
		},
	})
	snap.CoverConfig(Config{})
}

// DecodeSnap checks the window indices the walker cannot see: the ring
// head and occupancy, and the window slot every outstanding miss token
// completes.
func (c *Core) DecodeSnap(r *snap.Reader) {
	w := len(c.readyAt)
	if c.head < 0 || c.head >= w || c.count < 0 || c.count > w {
		r.Failf("core window head %d count %d, window %d", c.head, c.count, w)
	}
	for _, slot := range c.tokens {
		if slot < 0 || slot >= w {
			r.Failf("core miss slot %d outside window %d", slot, w)
		}
	}
}

// Awaiting calls fn with each outstanding miss token, in no particular
// order, so the system can check a restored state as a whole.
func (c *Core) Awaiting(fn func(token uint64)) {
	for t := range c.tokens {
		fn(t)
	}
}
