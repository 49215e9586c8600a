package bless

import "nocsim/internal/snap"

// Checkpoint codec for the bufferless fabric: the chassis fields, then
// a hook for the pool-handle plane defined entirely in terms of
// simulated state — flit content at absolute pipeline positions — so it
// is identical whatever the pool layout or activation history that
// produced the state (see the chassis codec).

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Mesh"},
		Waived: map[string]string{
			"in":      "hook: occupied pipeline slots in scan order, by flit content",
			"cfg":     "config: construction input",
			"ejectW":  "construction: hoisted Config mirror",
			"injectW": "construction: hoisted Config mirror",
			"scr":     "scratch: every slot is written before it is read within one router step",
		},
	})
	snap.CoverConfig(Config{})
	snap.Cover(arrKey{}, snap.Coverage{
		Waived: map[string]string{
			"inject": "scratch: per-step copy of pool state",
			"tie":    "scratch: per-step copy of pool state",
		},
	})
	snap.Cover(stepScratch{}, snap.Coverage{
		Waived: map[string]string{
			"hs":   "scratch: written before read within one router step",
			"dst":  "scratch: written before read within one router step",
			"keys": "scratch: written before read within one router step",
			"ord":  "scratch: written before read within one router step",
			"out":  "scratch: written before read within one router step",
		},
	})
}

// EncodeSnap writes the pool-handle plane: the occupied pipeline slots
// in absolute scan order (positions are cycle-relative only through the
// stored cycle, which the restored fabric shares).
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
}

// DecodeSnap refills the plane into fresh pool slots and rebuilds the
// derived chassis state.
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
	f.Rebuild()
	for i, h := range f.in {
		if h != 0 {
			f.Requeue(i, 1)
		}
	}
}
