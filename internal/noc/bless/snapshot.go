package bless

import "nocsim/internal/snap"

// Checkpoint codec for the bufferless fabric: the chassis header, then
// a body defined entirely in terms of simulated state — flit content
// at absolute pipeline positions, side-ring content in FIFO order — so
// it is identical whatever the pool layout or activation history that
// produced the state (see the chassis codec).

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Mesh", "in", "side", "sideCount", "load", "randSrc"},
		Waived: map[string]string{
			"cfg":      "config: construction input",
			"ejectW":   "construction: hoisted Config mirror",
			"injectW":  "construction: hoisted Config mirror",
			"sideCap":  "construction: hoisted Config mirror",
			"arb":      "construction: hoisted Config mirror",
			"sideHead": "canonical: side rings are encoded in FIFO order and restored head-normalized",
			"fastRT":   "construction: derived from the topology",
			"scr":      "scratch: every slot is written before it is read within one router step",
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

const tagBless = 0x20

// Snapshot encodes the fabric's complete dynamic state: the chassis
// header, then the pipelines, side rings, adaptive load and random
// streams.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SnapshotHeader(w, tagBless)
	// Link pipelines: occupied slots in absolute scan order. Positions
	// are cycle-relative only through the stored cycle, which the
	// restored fabric shares.
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
			f.SnapshotHandle(w, h)
		}
	}
	// Side rings, FIFO order per node (restored head-normalized).
	if f.side != nil {
		d := f.sideCap
		for node, c := range f.sideCount {
			w.U32(uint32(c))
			for k := int32(0); k < c; k++ {
				f.SnapshotHandle(w, f.side[int32(node)*d+(f.sideHead[node]+k)%d])
			}
		}
	}
	// Adaptive routing's decayed port-busy estimates.
	for _, v := range f.load {
		w.U32(v)
	}
	// Random arbitration streams.
	for _, src := range f.randSrc {
		src.Snapshot(w)
	}
}

// Restore overlays state captured by Snapshot onto a fabric freshly
// constructed with the same Config.
func (f *Fabric) Restore(r *snap.Reader) {
	if !f.RestoreHeader(r, tagBless, "bless") {
		return
	}
	occ := int(r.U32())
	if !f.ReservePool(r, occ, len(f.in), "bless pipelines") {
		return
	}
	for k := 0; k < occ; k++ {
		i := int(r.U32())
		h := f.RestoreHandle(r)
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
				f.side[int32(node)*d+k] = f.RestoreHandle(r)
			}
		}
	}
	for i := range f.load {
		f.load[i] = r.U32()
	}
	for _, src := range f.randSrc {
		src.Restore(r)
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
