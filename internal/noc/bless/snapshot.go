package bless

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the bufferless fabric. The encoding is defined
// entirely in terms of simulated state — flit content at absolute
// pipeline positions, side-ring content in FIFO order, merged counter
// totals — so it is identical whatever the pool layout or activation
// history that produced the state. Restore overlays a fabric
// freshly constructed with the same Config: pooled flits are re-Alloced
// in canonical scan order (handle values never influence arbitration,
// which orders by Inject/Seq/Index content), and the active set,
// pipeline occupancy counters and in-flight total are recomputed from
// exact occupancy rather than decoded.

func init() {
	snap.Cover(Fabric{}, snap.Coverage{
		Serialized: []string{
			"cycle", "in", "side", "sideCount", "nics", "load",
			"randSrc", "stats",
		},
		Waived: map[string]string{
			"top":      "construction: topology is config-derived",
			"cfg":      "config: construction input",
			"policy":   "construction: restored separately by the system layer",
			"depth":    "construction: derived from Config.HopLatency",
			"ejectW":   "construction: hoisted Config mirror",
			"injectW":  "construction: hoisted Config mirror",
			"sideCap":  "construction: hoisted Config mirror",
			"arb":      "construction: hoisted Config mirror",
			"fpool":    "rebuilt: occupied slots are re-Alloced from serialized flit content in canonical scan order",
			"hotp":     "cache: refreshed from the pool after every Reserve",
			"ringLen":  "construction: derived from Config.HopLatency",
			"planeSz":  "construction: derived from the topology",
			"stage":    "scratch: recomputed from cycle at the top of every Step",
			"wstage":   "scratch: recomputed from cycle at the top of every Step",
			"sideHead": "canonical: side rings are encoded in FIFO order and restored head-normalized",
			"skip":     "construction: derived from Config and the policy's capabilities",
			"active":   "rebuilt: recomputed from exact occupancy (NIC traffic, side rings, pipelines) on restore",
			"idle":     "construction: capability view of the policy",
			"lastTick": "canonical: SyncPolicy flushes pending idle stretches before snapshot; restore pins every entry to the restored cycle",
			"openPol":  "construction: capability view of the policy",
			"links":    "construction: derived from the topology",
			"inCount":  "derived: recomputed from pipeline occupancy on restore",
			"fastRT":   "construction: derived from the topology",
			"scr":      "scratch: every slot is written before it is read within one router step",
			"inflight": "derived: recomputed from the counters on restore",
			"tr":       "construction: observability collector, restored by the obs layer",
			"sp":       "construction: observability collector, restored by the obs layer",
		},
	})
	snap.Cover(Config{}, snap.Coverage{
		Waived: map[string]string{
			"Topology":    "config: construction input",
			"HopLatency":  "config: construction input",
			"EjectWidth":  "config: construction input",
			"InjectWidth": "config: construction input",
			"Policy":      "config: construction input",
			"Arb":         "config: construction input",
			"SideBuffer":  "config: construction input",
			"Adaptive":    "config: construction input",
			"NoActiveSet": "config: construction input",
			"Seed":        "config: construction input",
			"Probe":       "config: construction input",
		},
	})
	snap.Cover(linkRef{}, snap.Coverage{
		Waived: map[string]string{
			"idx": "construction: derived from the topology",
			"nb":  "construction: derived from the topology",
		},
	})
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

// Snapshot encodes the fabric's complete dynamic state. It first
// flushes pending idle stretches into the policy (SyncPolicy), which is
// behaviourally invisible — TickIdle produces exactly the state the
// skipped per-cycle Ticks would have — and makes the encoding
// independent of which nodes the active set happened to skip.
func (f *Fabric) Snapshot(w *snap.Writer) {
	f.SyncPolicy()
	w.Tag(tagBless)
	w.I64(f.cycle)
	s := f.Stats()
	s.Snapshot(w)
	w.U32(uint32(len(f.nics)))
	for _, nic := range f.nics {
		nic.Snapshot(w)
	}
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
	var fl noc.Flit
	for i, h := range f.in {
		if h == 0 {
			continue
		}
		w.U32(uint32(i))
		f.fpool.Get(h, &fl)
		noc.SnapshotFlit(w, &fl)
	}
	// Side rings, FIFO order per node (restored head-normalized).
	if f.side != nil {
		d := int32(f.cfg.SideBuffer)
		for node := range f.sideCount {
			c := f.sideCount[node]
			w.U32(uint32(c))
			for k := int32(0); k < c; k++ {
				//nocvet:allow handleleak read-only snapshot scan: the handle stays owned by the side ring
				h := f.side[int32(node)*d+(f.sideHead[node]+k)%d]
				f.fpool.Get(h, &fl)
				noc.SnapshotFlit(w, &fl)
			}
		}
	}
	// Adaptive routing's decayed port-busy estimates.
	if f.load != nil {
		for _, v := range f.load {
			w.U32(v)
		}
	}
	// Random arbitration streams.
	for _, src := range f.randSrc {
		src.Snapshot(w)
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
	r.Expect(tagBless)
	f.cycle = r.I64()
	// Cycles is owned by f.cycle; Links is not encoded and keeps the
	// constructed fabric's value.
	f.stats.Restore(r)
	f.stats.Cycles = 0
	if n := int(r.U32()); n != len(f.nics) {
		r.Failf("bless NICs %d, want %d", n, len(f.nics))
		return
	}
	for _, nic := range f.nics {
		nic.Restore(r)
	}
	occ := int(r.U32())
	if r.Err() != nil {
		return
	}
	f.reserve(occ)
	var fl noc.Flit
	for k := 0; k < occ; k++ {
		i := int(r.U32())
		noc.RestoreFlit(r, &fl)
		if r.Err() != nil {
			return
		}
		if i < 0 || i >= len(f.in) || f.in[i] != 0 {
			r.Failf("bless pipeline slot %d invalid or reused", i)
			return
		}
		f.in[i] = f.fpool.Alloc(&fl)
	}
	if f.side != nil {
		d := f.cfg.SideBuffer
		// Read every ring's content first, then grow the pool once.
		counts := make([]int32, len(f.sideCount))
		flits := make([]noc.Flit, 0, 16)
		for node := range counts {
			c := int32(r.U32())
			if c < 0 || int(c) > d {
				r.Failf("bless side ring %d overflow (%d > %d)", node, c, d)
				return
			}
			counts[node] = c
			for k := int32(0); k < c; k++ {
				noc.RestoreFlit(r, &fl)
				flits = append(flits, fl)
			}
		}
		if r.Err() != nil {
			return
		}
		f.reserve(len(flits))
		j := 0
		for node := range counts {
			f.sideHead[node] = 0
			f.sideCount[node] = counts[node]
			for k := int32(0); k < counts[node]; k++ {
				f.side[node*d+int(k)] = f.fpool.Alloc(&flits[j])
				j++
			}
		}
	}
	if f.load != nil {
		for i := range f.load {
			f.load[i] = r.U32()
		}
	}
	for _, src := range f.randSrc {
		src.Restore(r)
	}
	if r.Err() != nil {
		return
	}
	f.rebuildDerived()
}

// rebuildDerived recomputes everything the codec deliberately does not
// encode: the in-flight total, pipeline occupancy counters, idle-replay
// cursors and the active set — all exact functions of the restored
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
		for i, h := range f.in {
			if h == 0 {
				continue
			}
			node := (i % f.planeSz) / maxDirs
			if f.inCount != nil {
				f.inCount[node]++
			}
			if f.skip {
				f.active[node] = 1
			}
		}
	}
	if f.skip {
		for node, nic := range f.nics {
			if nic.HasTraffic() || (f.sideCount != nil && f.sideCount[node] > 0) {
				f.active[node] = 1
			}
		}
	}
}
