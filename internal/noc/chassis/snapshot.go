package chassis

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the chassis. A fabric blob starts with the
// chassis fields — the cycle, every NIC and the counters — followed by
// the fabric's own fields and its hook. Everything else the chassis
// holds is either construction (topology, policy views, geometry),
// rebuilt (the flit pool's handle numbering, free list and planes:
// pooled flits are encoded by content and re-Alloced in canonical scan
// order, and handle values never influence arbitration) or derived from
// the restored state by Rebuild (in-flight total, idle-replay cursors,
// pipeline occupancy, the active set). The encoding leaves the idle
// replay cursors out, so callers flush pending idle stretches into the
// policy (SyncPolicy) before encoding, as sim.Sim.Snapshot does.

func init() {
	snap.Cover(Base{}, snap.Coverage{
		Serialized: []string{"cycle", "nics", "stats"},
		Waived: map[string]string{
			"top":      "construction: topology is config-derived",
			"policy":   "construction: restored separately by the system layer",
			"openPol":  "construction: capability view of the policy",
			"skip":     "construction: derived from Config and the policy's capabilities",
			"idle":     "construction: capability view of the policy",
			"active":   "rebuilt: recomputed from exact occupancy on restore",
			"group":    "construction: derived from the fabric's geometry",
			"lastTick": "canonical: SyncPolicy flushes pending idle stretches before snapshot; restore pins every entry to the restored cycle",
			"links":    "construction: the link count, checked against the restored stats",
			"inflight": "derived: recomputed from the counters on restore",
			"Tracer":   "construction: observability collector, restored by the obs layer",
			"Spatial":  "construction: observability collector, restored by the obs layer",
		},
	})
	snap.Cover(Mesh{}, snap.Coverage{
		Serialized: []string{"Base"},
		Waived: map[string]string{
			"Pool":    "rebuilt: occupied slots are re-Alloced from serialized flit content in canonical scan order",
			"Hot":     "cache: refreshed from the pool after every Reserve",
			"Links":   "construction: derived from the topology",
			"depth":   "construction: derived from Config.HopLatency",
			"ringLen": "construction: derived from Config.HopLatency",
			"planeSz": "construction: derived from the topology",
			"stage":   "scratch: recomputed from cycle at the top of every step",
			"wstage":  "scratch: recomputed from cycle at the top of every step",
			"inCount": "derived: recomputed from pipeline occupancy on restore",
		},
	})
	snap.Cover(Link{}, snap.Coverage{
		Waived: map[string]string{
			"Idx": "construction: derived from the topology",
			"Nb":  "construction: derived from the topology",
		},
	})
}

// DecodeSnap checks the chassis invariants the walker cannot see: a
// non-negative cycle, and the link count the fabric was built with
// (Utilization divides by it).
func (c *Base) DecodeSnap(r *snap.Reader) {
	if c.cycle < 0 {
		r.Failf("fabric cycle %d is negative", c.cycle)
	}
	if c.stats.Links != c.links {
		r.Failf("fabric link count %d, built with %d", c.stats.Links, c.links)
	}
}

// NICFlits calls fn with every flit the NICs hold (see noc.Network).
func (c *Base) NICFlits(fn func(*noc.Flit)) {
	for _, nic := range c.nics {
		nic.Flits(fn)
	}
}

// Flits calls fn with every flit the fabric holds: the NICs' and the
// pool's.
func (m *Mesh) Flits(fn func(*noc.Flit)) {
	m.NICFlits(fn)
	m.Pool.Live(fn)
}

// Rebuild recomputes what the codec deliberately does not encode, once
// the fabric body is restored: the in-flight total, the idle-replay
// cursors (pinned to the restored cycle) and the active set, cleared
// and then re-flagged for every unit whose NIC holds traffic. The
// fabric then Pokes the units its own state keeps busy.
func (c *Base) Rebuild() {
	c.inflight = c.stats.FlitsInjected - c.stats.FlitsEjected
	if !c.skip {
		return
	}
	for i := range c.lastTick {
		c.lastTick[i] = c.cycle
	}
	for u := range c.active {
		c.active[u] = 0
	}
	for node, nic := range c.nics {
		if nic.HasTraffic() {
			c.active[node/c.group] = 1
		}
	}
}

// ReservePool grows the pool for n flits about to be re-Alloced by a
// restore. A blob may claim at most limit — the fabric's capacity — so
// a corrupt count fails here instead of sizing the pool by it.
func (m *Mesh) ReservePool(r *snap.Reader, n, limit int, what string) bool {
	if r.Err() != nil {
		return false
	}
	if n < 0 || n > limit {
		r.Failf("%d pooled flits in %s, capacity %d", n, what, limit)
		return false
	}
	m.Pool.Reserve(n)
	m.Hot = m.Pool.HotPlane()
	return true
}

// EncodeHandle encodes pooled flit h by content.
func (m *Mesh) EncodeHandle(w *snap.Writer, h noc.Handle) {
	var fl noc.Flit
	m.Pool.Get(h, &fl)
	snap.Encode(w, &fl)
}

// DecodeHandle decodes a flit written by EncodeHandle into a fresh pool
// slot, within the budget ReservePool granted. It returns the zero
// Handle once the reader has failed; a flit addressed outside the
// fabric fails it.
func (m *Mesh) DecodeHandle(r *snap.Reader) noc.Handle {
	var fl noc.Flit
	snap.Decode(r, &fl)
	if r.Err() != nil {
		return 0
	}
	if fl.Src < 0 || int(fl.Src) >= len(m.nics) || fl.Dst < 0 || int(fl.Dst) >= len(m.nics) {
		r.Failf("pooled flit %d->%d outside the fabric", fl.Src, fl.Dst)
		return 0
	}
	if m.Pool.FreeSlots() == 0 {
		r.Failf("more pooled flits than the blob declared")
		return 0
	}
	return m.Pool.Alloc(&fl)
}

// Requeue notes, during Rebuild, n items found in link-plane element i:
// they count toward the receiving node's pipeline occupancy and keep it
// active.
func (m *Mesh) Requeue(i int, n int32) {
	if !m.skip || n == 0 {
		return
	}
	node := (i % m.planeSz) / Dirs
	m.inCount[node] += n
	m.active[node] = 1
}

// Rebuild extends Base.Rebuild with the pipeline occupancy counters,
// which the fabric then refills with Requeue.
func (m *Mesh) Rebuild() {
	m.Base.Rebuild()
	for i := range m.inCount {
		m.inCount[i] = 0
	}
}
