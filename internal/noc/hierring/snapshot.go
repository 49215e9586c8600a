package hierring

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the hierarchical ring fabric. Flits live by
// value in ring slots and bridge FIFOs (no pool), so the encoding is a
// direct walk: slot content at absolute stop positions, FIFO content in
// FIFO order (restored head-normalized). The active set, global-ring
// occupancy count and l2g live counter are recomputed from the restored
// state.

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{
			"cycle", "nics", "local", "global", "l2g", "g2l", "stats",
		},
		Waived: map[string]string{
			"cfg":       "config: construction input",
			"policy":    "construction: restored separately by the system layer",
			"lineTo":    "construction: placeholder topology derived from Config.Nodes",
			"scratchL":  "scratch: every slot is rewritten before the swap each rotation",
			"scratchG":  "scratch: every slot is rewritten before the swap each rotation",
			"skip":      "construction: derived from Config and the policy's capabilities",
			"activeG":   "rebuilt: recomputed from ring occupancy, g2l content and NIC traffic on restore",
			"idle":      "construction: capability view of the policy",
			"lastTick":  "canonical: SyncPolicy flushes pending idle stretches before snapshot; restore pins every entry to the restored cycle",
			"globalOcc": "derived: recomputed from global-ring occupancy on restore",
			"l2gLive":   "derived: recomputed from l2g FIFO counts on restore",
			"tr":        "construction: observability collector, restored by the obs layer",
			"sp":        "construction: observability collector, restored by the obs layer",
			"inflight":  "derived: recomputed from the counters on restore",
		},
	})
	snap.Cover(Config{}, snap.Coverage{
		Waived: map[string]string{
			"Nodes":       "config: construction input",
			"GroupSize":   "config: construction input",
			"BridgeFIFO":  "config: construction input",
			"Policy":      "config: construction input",
			"NoActiveSet": "config: construction input",
			"Probe":       "config: construction input",
		},
	})
	snap.Cover(slot{}, snap.Coverage{
		Serialized: []string{"f", "ok"},
	})
	snap.Cover(fifo{}, snap.Coverage{
		Serialized: []string{"buf", "count"},
		Waived: map[string]string{
			"head": "canonical: FIFO content is encoded in order and restored head-normalized",
		},
	})
}

const tagHierring = 0x22

func snapshotSlots(w *snap.Writer, ss []slot) {
	for i := range ss {
		w.Bool(ss[i].ok)
		if ss[i].ok {
			noc.SnapshotFlit(w, &ss[i].f)
		}
	}
}

func restoreSlots(r *snap.Reader, ss []slot) {
	for i := range ss {
		ss[i] = slot{}
		if r.Bool() {
			noc.RestoreFlit(r, &ss[i].f)
			ss[i].ok = true
		}
	}
}

func snapshotFifo(w *snap.Writer, q *fifo) {
	w.U32(uint32(q.count))
	for k := 0; k < q.count; k++ {
		noc.SnapshotFlit(w, &q.buf[(q.head+k)%len(q.buf)])
	}
}

func restoreFifo(r *snap.Reader, q *fifo) {
	n := int(r.U32())
	if n < 0 || n > len(q.buf) {
		r.Failf("hierring FIFO overflow (%d > %d)", n, len(q.buf))
		return
	}
	q.head = 0
	q.count = n
	for k := 0; k < n; k++ {
		noc.RestoreFlit(r, &q.buf[k])
	}
}

// Snapshot encodes the fabric's complete dynamic state; see the
// bufferless fabric's Snapshot for the SyncPolicy rationale.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SyncPolicy()
	w.Tag(tagHierring)
	w.I64(f.cycle)
	s := f.Stats()
	s.Snapshot(w)
	w.U32(uint32(len(f.nics)))
	for _, nic := range f.nics {
		nic.Snapshot(w)
	}
	for g := range f.local {
		snapshotSlots(w, f.local[g])
	}
	snapshotSlots(w, f.global)
	for g := range f.l2g {
		snapshotFifo(w, &f.l2g[g])
	}
	for g := range f.g2l {
		snapshotFifo(w, &f.g2l[g])
	}
}

// Restore overlays state captured by Snapshot onto a fabric freshly
// constructed with the same Config.
func (f *Fabric) Restore(r *snap.Reader) {
	r.Expect(tagHierring)
	f.cycle = r.I64()
	// Cycles is owned by f.cycle; Links is not encoded and keeps the
	// constructed fabric's value.
	f.stats.Restore(r)
	f.stats.Cycles = 0
	if n := int(r.U32()); n != len(f.nics) {
		r.Failf("hierring NICs %d, want %d", n, len(f.nics))
		return
	}
	for _, nic := range f.nics {
		nic.Restore(r)
	}
	for g := range f.local {
		restoreSlots(r, f.local[g])
	}
	restoreSlots(r, f.global)
	for g := range f.l2g {
		restoreFifo(r, &f.l2g[g])
	}
	for g := range f.g2l {
		restoreFifo(r, &f.g2l[g])
	}
	if r.Err() != nil {
		return
	}
	f.rebuildDerived()
}

// rebuildDerived recomputes the in-flight total, global occupancy,
// bridge live counter, idle-replay cursors and the ring active set from
// the restored state.
func (f *Fabric) rebuildDerived() {
	f.inflight = f.stats.FlitsInjected - f.stats.FlitsEjected
	occ := 0
	for s := range f.global {
		if f.global[s].ok {
			occ++
		}
	}
	f.globalOcc = occ
	var live int64
	for g := range f.l2g {
		live += int64(f.l2g[g].count)
	}
	f.l2gLive = live
	if !f.skip {
		return
	}
	for i := range f.lastTick {
		f.lastTick[i] = f.cycle
	}
	for g := range f.activeG {
		act := !f.g2l[g].empty() || f.groupWants(g)
		if !act {
			for s := range f.local[g] {
				if f.local[g][s].ok {
					act = true
					break
				}
			}
		}
		if act {
			f.activeG[g] = 1
		} else {
			f.activeG[g] = 0
		}
	}
}
