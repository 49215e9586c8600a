package hierring

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the hierarchical ring fabric: the chassis
// header, then a direct walk — flits live by value in ring slots and
// bridge FIFOs (no pool), so the body is slot content at absolute stop
// positions and FIFO content in FIFO order (restored head-normalized).
// The global-ring occupancy count and l2g live counter are recomputed
// from the restored state.

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Base", "local", "global", "l2g", "g2l"},
		Waived: map[string]string{
			"cfg":       "config: construction input",
			"scratchL":  "scratch: every slot is rewritten before the swap each rotation",
			"scratchG":  "scratch: every slot is rewritten before the swap each rotation",
			"globalOcc": "derived: recomputed from global-ring occupancy on restore",
			"l2gLive":   "derived: recomputed from l2g FIFO counts on restore",
		},
	})
	snap.CoverConfig(Config{})
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

// Snapshot encodes the fabric's complete dynamic state: the chassis
// header, then the rings and bridge FIFOs.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SnapshotHeader(w, tagHierring)
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
	if !f.RestoreHeader(r, tagHierring, "hierring") {
		return
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
	f.globalOcc, f.l2gLive = 0, 0
	for s := range f.global {
		if f.global[s].ok {
			f.globalOcc++
		}
	}
	f.Rebuild()
	for g := range f.local {
		f.l2gLive += int64(f.l2g[g].count)
		busy := !f.g2l[g].empty()
		for s := range f.local[g] {
			busy = busy || f.local[g][s].ok
		}
		if busy {
			f.Poke(g)
		}
	}
}
