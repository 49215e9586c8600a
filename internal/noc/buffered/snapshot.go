package buffered

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
)

// Checkpoint codec for the buffered VC fabric. Like the bufferless
// codec, the encoding is defined purely in terms of simulated state:
// per-VC ring contents in FIFO order (restored head-normalized), the
// allocator's per-packet state (routes, output-VC grants, busy masks,
// credit balances), and the packed flit+credit link words at absolute
// positions. Pool handles are never encoded — occupied slots are
// re-Alloced in canonical scan order on restore.

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{
			"cycle", "nics", "routers", "lin", "stats",
		},
		Waived: map[string]string{
			"top":      "construction: topology is config-derived",
			"cfg":      "config: construction input",
			"policy":   "construction: restored separately by the system layer",
			"depth":    "construction: derived from Config.HopLatency",
			"vcs":      "construction: hoisted Config mirror",
			"ejectW":   "construction: hoisted Config mirror",
			"fpool":    "rebuilt: occupied slots are re-Alloced from serialized flit content in canonical scan order",
			"hotp":     "cache: refreshed from the pool after every Reserve",
			"ringLen":  "construction: derived from Config.HopLatency",
			"planeSz":  "construction: derived from the topology",
			"stage":    "scratch: recomputed from cycle at the top of every Step",
			"wstage":   "scratch: recomputed from cycle at the top of every Step",
			"inCount":  "derived: recomputed from pipeline occupancy on restore",
			"links":    "construction: derived from the topology",
			"skip":     "construction: derived from Config and the policy's capabilities",
			"active":   "rebuilt: recomputed from exact occupancy (buffers, NIC traffic, pipelines) on restore",
			"idle":     "construction: capability view of the policy",
			"lastTick": "canonical: SyncPolicy flushes pending idle stretches before snapshot; restore pins every entry to the restored cycle",
			"openPol":  "construction: capability view of the policy",
			"scr":      "scratch: every slot is written before it is read within one router step",
			"tr":       "construction: observability collector, restored by the obs layer",
			"sp":       "construction: observability collector, restored by the obs layer",
			"inflight": "derived: recomputed from the counters on restore",
		},
	})
	snap.Cover(Config{}, snap.Coverage{
		Waived: map[string]string{
			"Topology":    "config: construction input",
			"VCs":         "config: construction input",
			"BufDepth":    "config: construction input",
			"HopLatency":  "config: construction input",
			"EjectWidth":  "config: construction input",
			"Policy":      "config: construction input",
			"NoActiveSet": "config: construction input",
			"Probe":       "config: construction input",
		},
	})
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
	snap.Cover(linkRef{}, snap.Coverage{
		Waived: map[string]string{
			"idx": "construction: derived from the topology",
			"nb":  "construction: derived from the topology",
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

// Snapshot encodes the fabric's complete dynamic state; see the
// bufferless fabric's Snapshot for the SyncPolicy rationale.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SyncPolicy()
	w.Tag(tagBuffered)
	w.I64(f.cycle)
	s := f.Stats()
	s.Snapshot(w)
	w.U32(uint32(len(f.nics)))
	for _, nic := range f.nics {
		nic.Snapshot(w)
	}
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
	var fl noc.Flit
	for i := range f.routers {
		r := &f.routers[i]
		for j := range r.in {
			vc := &r.in[j]
			w.U32(uint32(vc.count))
			for k := 0; k < int(vc.count); k++ {
				p := int(vc.head) + k
				if p >= len(vc.buf) {
					p -= len(vc.buf)
				}
				f.fpool.Get(vc.buf[p], &fl)
				noc.SnapshotFlit(w, &fl)
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
			f.fpool.Get(h, &fl)
			noc.SnapshotFlit(w, &fl)
		}
	}
}

// reserve grows the flit pool so n handles can be Alloced.
func (f *Fabric) reserve(n int) {
	f.fpool.Reserve(n)
	f.hotp = f.fpool.HotPlane()
}

// Restore overlays state captured by Snapshot onto a fabric freshly
// constructed with the same Config.
func (f *Fabric) Restore(r *snap.Reader) {
	r.Expect(tagBuffered)
	f.cycle = r.I64()
	// Cycles is owned by f.cycle; Links is not encoded and keeps the
	// constructed fabric's value.
	f.stats.Restore(r)
	f.stats.Cycles = 0
	if n := int(r.U32()); n != len(f.nics) {
		r.Failf("buffered NICs %d, want %d", n, len(f.nics))
		return
	}
	for _, nic := range f.nics {
		nic.Restore(r)
	}
	total := int(r.U32())
	if r.Err() != nil {
		return
	}
	f.reserve(total)
	var fl noc.Flit
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
				noc.RestoreFlit(r, &fl)
				if r.Err() != nil {
					return
				}
				vc.buf[k] = f.fpool.Alloc(&fl)
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
	}
	occ := int(r.U32())
	if r.Err() != nil {
		return
	}
	for k := 0; k < occ; k++ {
		i := int(r.U32())
		cb := r.U8()
		hasFlit := r.Bool()
		wd := uint64(cb) << 32
		if hasFlit {
			noc.RestoreFlit(r, &fl)
			if r.Err() != nil {
				return
			}
			wd |= uint64(f.fpool.Alloc(&fl))
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
	f.rebuildDerived()
}

// rebuildDerived recomputes the in-flight total, pipeline occupancy
// counters, idle-replay cursors and the active set from the restored
// state.
func (f *Fabric) rebuildDerived() {
	f.inflight = f.stats.FlitsInjected - f.stats.FlitsEjected
	if f.inCount != nil {
		for i := range f.inCount {
			f.inCount[i] = 0
		}
	}
	if f.skip {
		for i := range f.active {
			f.active[i] = 0
		}
		for i := range f.lastTick {
			f.lastTick[i] = f.cycle
		}
	}
	if f.inCount != nil || f.skip {
		for i, wd := range f.lin {
			if wd == 0 {
				continue
			}
			node := (i % f.planeSz) / maxDirs
			if f.inCount != nil {
				if noc.Handle(wd) != 0 {
					f.inCount[node]++
				}
				if wd>>32 != 0 {
					f.inCount[node]++
				}
			}
			if f.skip {
				f.active[node] = 1
			}
		}
	}
	if f.skip {
		for node, nic := range f.nics {
			if f.routers[node].nonEmpty != 0 || nic.HasTraffic() {
				f.active[node] = 1
			}
		}
	}
}
