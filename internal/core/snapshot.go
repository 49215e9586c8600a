package core

import "nocsim/internal/snap"

// Checkpoint codec for the congestion-control mechanism. The hardware
// instruments (Monitor windows, Throttler counters) and the distributed
// controller's AIMD state are real dynamic state and are encoded; the
// tuning constants are construction inputs and the central controller's
// rates buffer is scratch that every Update fully rewrites before it
// reads.

func init() {
	snap.Cover(Monitor{}, snap.Coverage{
		Serialized: []string{"bits", "sums", "pos"},
		Waived: map[string]string{
			"window": "construction: W is config-derived",
			"words":  "construction: derived from window",
		},
	})
	snap.Cover(Throttler{}, snap.Coverage{
		Serialized: []string{"count", "thresh"},
	})
	snap.Cover(Policy{}, snap.Coverage{
		Serialized: []string{"M", "T"},
	})
	snap.Cover(Static{}, snap.Coverage{
		Serialized: []string{"M", "T"},
	})
	snap.Cover(Distributed{}, snap.Coverage{
		Serialized: []string{"M", "T", "rates", "signaled", "signals"},
		Waived: map[string]string{
			"SigmaThresh": "config: backoff constant set at construction",
			"Increase":    "config: backoff constant set at construction",
			"Step":        "config: backoff constant set at construction",
			"Decay":       "config: backoff constant set at construction",
			"MaxRate":     "config: backoff constant set at construction",
		},
	})
	snap.Cover(Controller{}, snap.Coverage{
		Serialized: []string{"epochs", "decisions"},
		Waived: map[string]string{
			"params": "config: Params is construction input",
			"policy": "construction: wired to the restored Policy, which owns the state",
			"rates":  "scratch: every Update overwrites all elements before any read",
		},
	})
	snap.Cover(Params{}, snap.Coverage{
		Waived: map[string]string{
			"AlphaStarve": "config: tuning constant",
			"BetaStarve":  "config: tuning constant",
			"GammaStarve": "config: tuning constant",
			"AlphaThrot":  "config: tuning constant",
			"BetaThrot":   "config: tuning constant",
			"GammaThrot":  "config: tuning constant",
			"Epoch":       "config: tuning constant",
			"IPFCap":      "config: tuning constant",
			"MinSigma":    "config: tuning constant",
		},
	})
	snap.Cover(Decision{}, snap.Coverage{
		Serialized: []string{
			"Congested", "MeanIPF", "Rates", "ThrottledNodes", "ControlPackets",
		},
	})
}

// DecodeSnap checks the window cursors the walker cannot see: each
// node's write position indexes its window.
func (m *Monitor) DecodeSnap(r *snap.Reader) {
	for node, p := range m.pos {
		if p < 0 || int(p) >= m.window {
			r.Failf("monitor node %d position %d outside window %d", node, p, m.window)
			return
		}
	}
}
