package hierring

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the hierarchical ring fabric: flits live by
// value in ring slots and bridge FIFOs (no pool), so the walker encodes
// the chassis fields and the slot content at absolute stop positions
// directly; a hook writes FIFO content in FIFO order (restored
// head-normalized). The global-ring occupancy count and l2g live
// counter are recomputed from the restored state.

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
		Waived: map[string]string{
			"buf":   "hook: FIFO content in order",
			"count": "hook: encoded with the FIFO content",
			"head":  "canonical: FIFO content is encoded in order and restored head-normalized",
		},
	})
}

// EncodeSnap writes the FIFO content in order.
func (q *fifo) EncodeSnap(w *snap.Writer) {
	w.U32(uint32(q.count))
	for k := 0; k < q.count; k++ {
		snap.Encode(w, &q.buf[(q.head+k)%len(q.buf)])
	}
}

// DecodeSnap refills the FIFO head-normalized.
func (q *fifo) DecodeSnap(r *snap.Reader) {
	n := int(r.U32())
	if n < 0 || n > len(q.buf) {
		r.Failf("hierring FIFO overflow (%d > %d)", n, len(q.buf))
		return
	}
	q.head, q.count = 0, n
	for k := 0; k < n; k++ {
		snap.Decode(r, &q.buf[k])
	}
}

// DecodeSnap recomputes the occupancy counters and the active set.
func (f *Fabric) DecodeSnap(r *snap.Reader) {
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

// Flits calls fn with every flit the fabric holds (see noc.Network).
func (f *Fabric) Flits(fn func(*noc.Flit)) {
	f.NICFlits(fn)
	for _, ring := range append([][]slot{f.global}, f.local...) {
		for s := range ring {
			if ring[s].ok {
				fn(&ring[s].f)
			}
		}
	}
	for _, fifos := range [][]fifo{f.l2g, f.g2l} {
		for _, q := range fifos {
			for k := 0; k < q.count; k++ {
				fn(&q.buf[(q.head+k)%len(q.buf)])
			}
		}
	}
}
