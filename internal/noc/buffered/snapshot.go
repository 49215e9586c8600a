package buffered

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
)

// Checkpoint codec for the buffered VC fabric: the chassis fields and
// the allocator's per-packet state (routes, output-VC grants, busy
// masks, credit balances), then a hook for what holds pool handles —
// per-VC ring contents in FIFO order (restored head-normalized) and the
// packed flit+credit link words at absolute positions — defined purely
// in terms of simulated state. Pool handles are never encoded (see the
// chassis codec).

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{"Mesh", "routers"},
		Waived: map[string]string{
			"lin":    "hook: occupied link words in scan order, flit by content",
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
		Serialized: []string{"route", "routed", "outVC"},
		Waived: map[string]string{
			"buf":   "hook: ring content in FIFO order, by flit content",
			"count": "hook: encoded with the ring content",
			"head":  "canonical: ring content is encoded in FIFO order and restored head-normalized",
		},
	})
	snap.Cover(router{}.local[0], snap.Coverage{
		Serialized: []string{"route", "routed", "outVC"},
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

// EncodeSnap writes what holds pool handles: the total pooled-flit
// count up front (so decoding grows the pool once), every VC ring in
// FIFO order, then the occupied link words in absolute scan order with
// flit content in place of the handle.
func (f *Fabric) EncodeSnap(w *snap.Writer) {
	total := uint32(0)
	for i := range f.routers {
		for j := range f.routers[i].in {
			total += uint32(f.routers[i].in[j].count)
		}
	}
	occ := uint32(0)
	for _, wd := range f.lin {
		if noc.Handle(wd) != 0 {
			total++
		}
		if wd != 0 {
			occ++
		}
	}
	w.U32(total)
	for i := range f.routers {
		for j := range f.routers[i].in {
			vc := &f.routers[i].in[j]
			w.U32(uint32(vc.count))
			for k := 0; k < int(vc.count); k++ {
				f.EncodeHandle(w, vc.buf[(int(vc.head)+k)%len(vc.buf)])
			}
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
			f.EncodeHandle(w, h)
		}
	}
}

// DecodeSnap refills the VC rings (head-normalized) and link words into
// fresh pool slots and rebuilds the derived router and chassis state.
func (f *Fabric) DecodeSnap(r *snap.Reader) {
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
			vc.head, vc.count = 0, int16(c)
			for k := 0; k < c; k++ {
				vc.buf[k] = f.DecodeHandle(r)
			}
			if c > 0 {
				rt.nonEmpty |= 1 << uint(j)
			}
		}
	}
	occ := int(r.U32())
	for k := 0; k < occ && r.Err() == nil; k++ {
		i := int(r.U32())
		wd := uint64(r.U8()) << 32
		if r.Bool() {
			wd |= uint64(f.DecodeHandle(r))
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
	f.check(r)
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

// check fails r unless the restored allocator state is one stepping
// can take: ports and VCs in range, VC rings holding whole packets in
// order, routed fronts on their XY route, every busy output VC held by
// exactly one packet, and each VC's
// credits plus the flits occupying or travelling toward its buffer and
// the credits travelling back summing to the buffer depth.
func (f *Fabric) check(r *snap.Reader) {
	top := f.Topology()
	nodes, vcs := len(f.routers), f.vcs
	// onLink[(receiver*maxDirs+dir)*vcs+vc]: flits arriving into that
	// VC; credits returning for the receiver's output VC toward dir.
	onLink := make([]int32, nodes*maxDirs*vcs)
	credits := make([]int32, nodes*maxDirs*vcs)
	for i, wd := range f.lin {
		at := i % (nodes * maxDirs) * vcs
		if uint32(wd) != 0 {
			if vc := int(f.Hot[uint32(wd)].VC); vc >= 0 && vc < vcs {
				onLink[at+vc]++
			} else {
				r.Failf("buffered link flit on VC %d of %d", vc, vcs)
				return
			}
		}
		if cb := int(wd >> 32); cb > vcs {
			r.Failf("buffered link credit for VC %d of %d", cb-1, vcs)
			return
		} else if cb > 0 {
			credits[at+cb-1]++
		}
	}
	for node := range f.routers {
		rt := &f.routers[node]
		owned := uint32(0)
		var prev noc.Flit
		claim := func(routed bool, route topology.Port, outVC int8, front *noc.Flit) bool {
			switch {
			case !routed:
				return outVC == -1
			case route < 0 || route > topology.Local || route != topology.Local && top.Neighbor(node, route) < 0,
				front != nil && (front.Dst < 0 || int(front.Dst) >= nodes || route != top.XYRoute(node, int(front.Dst))):
				return false
			case outVC == -1:
				return true
			case route == topology.Local || outVC < 0 || int(outVC) >= vcs:
				return false
			}
			bit := uint32(1) << (int(route)*vcs + int(outVC))
			ok := owned&bit == 0
			owned |= bit
			return ok
		}
		ok := true
		for j := range rt.in {
			vc := &rt.in[j]
			var front *noc.Flit
			for k := 0; k < int(vc.count); k++ {
				var fl noc.Flit
				f.Pool.Get(vc.buf[k], &fl)
				if k == 0 {
					front = &fl
				} else if !noc.Follows(&prev, &fl) {
					ok = false
				}
				prev = fl
			}
			ok = ok && claim(vc.routed, vc.route, vc.outVC, front)
		}
		for v := range rt.local {
			lv := &rt.local[v]
			ok = ok && claim(lv.routed, lv.route, lv.outVC, f.localFront(f.NIC(node), v))
		}
		if !ok || owned != rt.busy {
			r.Failf("buffered router %d allocator state is inconsistent", node)
			return
		}
		for d := 0; d < maxDirs; d++ {
			nb := top.Neighbor(node, topology.Port(d))
			if nb < 0 {
				continue
			}
			ad := int(topology.Opposite(topology.Port(d)))
			for v := 0; v < vcs; v++ {
				held := rt.out[d*vcs+v] + int32(f.routers[nb].in[ad*vcs+v].count) +
					onLink[(nb*maxDirs+ad)*vcs+v] + credits[(node*maxDirs+d)*vcs+v]
				if held != int32(f.cfg.BufDepth) {
					r.Failf("buffered credits for %d->%d VC %d account for %d slots of %d", node, nb, v, held, f.cfg.BufDepth)
					return
				}
			}
		}
	}
}
