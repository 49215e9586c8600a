package buffered

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
)

// Checkpoint codec for the buffered VC fabric: the chassis header,
// then a body defined purely in terms of simulated state — per-VC ring
// contents in FIFO order (restored head-normalized), the allocator's
// per-packet state (routes, output-VC grants, busy masks, credit
// balances), and the packed flit+credit link words at absolute
// positions. Pool handles are never encoded (see the chassis codec).

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Mesh", "routers", "lin"},
		Waived: map[string]string{
			"cfg":    "config: construction input",
			"vcs":    "construction: hoisted Config mirror",
			"ejectW": "construction: hoisted Config mirror",
			"scr":    "scratch: every slot is written before it is read within one router step",
		},
	})
	snap.CoverConfig(Config{})
	snap.Cover(router{}, snap.Coverage{
		Serialized: []string{"in", "busy", "local", "out"},
		Waived: map[string]string{
			"nonEmpty": "derived: recomputed from per-VC counts on restore",
		},
	})
	snap.Cover(inVC{}, snap.Coverage{
		Serialized: []string{"buf", "count", "route", "routed", "outVC"},
		Waived: map[string]string{
			"head": "canonical: ring content is encoded in FIFO order and restored head-normalized",
		},
	})
	snap.Cover(ageKey{}, snap.Coverage{
		Waived: map[string]string{
			"inject": "scratch: per-step copy of pool state",
			"seq":    "scratch: per-step copy of pool state",
			"index":  "scratch: per-step copy of pool state",
		},
	})
	snap.Cover(nominee{}, snap.Coverage{
		Waived: map[string]string{
			"dir":   "scratch: written before read within one router step",
			"vc":    "scratch: written before read within one router step",
			"route": "scratch: written before read within one router step",
			"age":   "scratch: written before read within one router step",
		},
	})
	snap.Cover(vcReq{}, snap.Coverage{
		Waived: map[string]string{
			"dir": "scratch: written before read within one router step",
			"vc":  "scratch: written before read within one router step",
			"age": "scratch: written before read within one router step",
		},
	})
	snap.Cover(scratch{}, snap.Coverage{
		Waived: map[string]string{
			"noms":     "scratch: written before read within one router step",
			"granted":  "scratch: written before read within one router step",
			"localReq": "scratch: written before read within one router step",
			"reqs":     "scratch: written before read within one router step",
		},
	})
}

const tagBuffered = 0x21

// Snapshot encodes the fabric's complete dynamic state: the chassis
// header, then every router's VC rings and allocator state, then the
// link words.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SnapshotHeader(w, tagBuffered)
	// Total pooled-flit count up front, so Restore grows the pool once.
	total := uint32(0)
	for i := range f.routers {
		for j := range f.routers[i].in {
			total += uint32(f.routers[i].in[j].count)
		}
	}
	for _, wd := range f.lin {
		if noc.Handle(wd) != 0 {
			total++
		}
	}
	w.U32(total)
	for i := range f.routers {
		r := &f.routers[i]
		for j := range r.in {
			vc := &r.in[j]
			w.U32(uint32(vc.count))
			for k := 0; k < int(vc.count); k++ {
				f.SnapshotHandle(w, vc.buf[(int(vc.head)+k)%len(vc.buf)])
			}
			w.U8(uint8(vc.route))
			w.Bool(vc.routed)
			w.U8(uint8(vc.outVC))
		}
		w.U32(r.busy)
		for v := range r.local {
			w.U8(uint8(r.local[v].route))
			w.Bool(r.local[v].routed)
			w.U8(uint8(r.local[v].outVC))
		}
		for _, c := range r.out {
			w.I32(c)
		}
	}
	// Packed flit+credit link words: occupied slots in absolute scan
	// order, flit content in place of its handle.
	occ := uint32(0)
	for _, wd := range f.lin {
		if wd != 0 {
			occ++
		}
	}
	w.U32(occ)
	for i, wd := range f.lin {
		if wd == 0 {
			continue
		}
		w.U32(uint32(i))
		w.U8(uint8(wd >> 32)) // credit byte (credit VC + 1; 0 = none)
		h := noc.Handle(wd)
		w.Bool(h != 0)
		if h != 0 {
			f.SnapshotHandle(w, h)
		}
	}
}

// Restore overlays state captured by Snapshot onto a fabric freshly
// constructed with the same Config.
func (f *Fabric) Restore(r *snap.Reader) {
	if !f.RestoreHeader(r, tagBuffered, "buffered") {
		return
	}
	total := int(r.U32())
	capacity := len(f.lin) + len(f.routers)*maxDirs*f.vcs*f.cfg.BufDepth
	if !f.ReservePool(r, total, capacity, "buffered VCs and links") {
		return
	}
	for i := range f.routers {
		rt := &f.routers[i]
		rt.nonEmpty = 0
		for j := range rt.in {
			vc := &rt.in[j]
			c := int(r.U32())
			if c < 0 || c > len(vc.buf) {
				r.Failf("buffered VC ring %d.%d overflow (%d > %d)", i, j, c, len(vc.buf))
				return
			}
			vc.head = 0
			vc.count = int16(c)
			for k := 0; k < c; k++ {
				vc.buf[k] = f.RestoreHandle(r)
			}
			vc.route = topology.Port(r.U8())
			vc.routed = r.Bool()
			vc.outVC = int8(r.U8())
			if c > 0 {
				rt.nonEmpty |= 1 << uint(j)
			}
		}
		rt.busy = r.U32()
		for v := range rt.local {
			rt.local[v].route = topology.Port(r.U8())
			rt.local[v].routed = r.Bool()
			rt.local[v].outVC = int8(r.U8())
		}
		for j := range rt.out {
			rt.out[j] = r.I32()
		}
		if r.Err() != nil {
			return
		}
	}
	occ := int(r.U32())
	for k := 0; k < occ; k++ {
		i := int(r.U32())
		wd := uint64(r.U8()) << 32
		if r.Bool() {
			wd |= uint64(f.RestoreHandle(r))
		}
		if r.Err() != nil {
			return
		}
		if i < 0 || i >= len(f.lin) || f.lin[i] != 0 || wd == 0 {
			r.Failf("buffered link slot %d invalid or reused", i)
			return
		}
		f.lin[i] = wd
	}
	if r.Err() != nil {
		return
	}
	f.Rebuild()
	for i, wd := range f.lin {
		n := int32(0)
		if noc.Handle(wd) != 0 {
			n++
		}
		if wd>>32 != 0 {
			n++
		}
		f.Requeue(i, n)
	}
	for node := range f.routers {
		if f.routers[node].nonEmpty != 0 {
			f.Poke(node)
		}
	}
}
