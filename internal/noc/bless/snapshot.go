package bless

import "nocsim/internal/snap"

// Checkpoint codec for the bufferless fabric: the chassis fields, the
// adaptive load and random streams, then a hook for the pool-handle
// planes defined entirely in terms of simulated state — flit content at
// absolute pipeline positions, side-ring content in FIFO order — so it
// is identical whatever the pool layout or activation history that
// produced the state (see the chassis codec).

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Mesh", "load", "randSrc"},
		Waived: map[string]string{
			"in":        "hook: occupied pipeline slots in scan order, by flit content",
			"side":      "hook: side rings in FIFO order, by flit content",
			"sideCount": "hook: encoded with the side rings",
			"cfg":       "config: construction input",
			"ejectW":    "construction: hoisted Config mirror",
			"injectW":   "construction: hoisted Config mirror",
			"sideCap":   "construction: hoisted Config mirror",
			"arb":       "construction: hoisted Config mirror",
			"sideHead":  "canonical: side rings are encoded in FIFO order and restored head-normalized",
			"fastRT":    "construction: derived from the topology",
			"scr":       "scratch: every slot is written before it is read within one router step",
		},
	})
	snap.CoverConfig(Config{})
	snap.Cover(arrKey{}, snap.Coverage{
		Waived: map[string]string{
			"inject": "scratch: per-step copy of pool state",
			"seq":    "scratch: per-step copy of pool state",
			"dst":    "scratch: per-step copy of pool state",
			"index":  "scratch: per-step copy of pool state",
		},
	})
	snap.Cover(stepScratch{}, snap.Coverage{
		Waived: map[string]string{
			"hs":   "scratch: written before read within one router step",
			"keys": "scratch: written before read within one router step",
			"ord":  "scratch: written before read within one router step",
			"out":  "scratch: written before read within one router step",
		},
	})
}

// EncodeSnap writes the pool-handle planes: the occupied pipeline
// slots in absolute scan order (positions are cycle-relative only
// through the stored cycle, which the restored fabric shares), then
// each side ring in FIFO order.
func (f *Fabric) EncodeSnap(w *snap.Writer) {
	occ := uint32(0)
	for _, h := range f.in {
		if h != 0 {
			occ++
		}
	}
	w.U32(occ)
	for i, h := range f.in {
		if h != 0 {
			w.U32(uint32(i))
			f.EncodeHandle(w, h)
		}
	}
	d := f.sideCap
	for node, c := range f.sideCount {
		w.U32(uint32(c))
		for k := int32(0); k < c; k++ {
			f.EncodeHandle(w, f.side[int32(node)*d+(f.sideHead[node]+k)%d])
		}
	}
}

// DecodeSnap refills the planes into fresh pool slots (side rings
// head-normalized) and rebuilds the derived chassis state.
func (f *Fabric) DecodeSnap(r *snap.Reader) {
	occ := int(r.U32())
	if !f.ReservePool(r, occ, len(f.in), "bless pipelines") {
		return
	}
	for k := 0; k < occ; k++ {
		i := int(r.U32())
		h := f.DecodeHandle(r)
		if r.Err() != nil {
			return
		}
		if i < 0 || i >= len(f.in) || f.in[i] != 0 {
			r.Failf("bless pipeline slot %d invalid or reused", i)
			return
		}
		f.in[i] = h
	}
	if f.side != nil && f.ReservePool(r, len(f.side), len(f.side), "bless side rings") {
		d := f.sideCap
		for node := range f.sideCount {
			c := int32(r.U32())
			if c < 0 || c > d {
				r.Failf("bless side ring %d overflow (%d > %d)", node, c, d)
				return
			}
			f.sideHead[node], f.sideCount[node] = 0, c
			for k := int32(0); k < c; k++ {
				f.side[int32(node)*d+k] = f.DecodeHandle(r)
			}
		}
	}
	if r.Err() != nil {
		return
	}
	f.Rebuild()
	for i, h := range f.in {
		if h != 0 {
			f.Requeue(i, 1)
		}
	}
	for node, c := range f.sideCount {
		if c > 0 {
			f.Poke(node)
		}
	}
}
