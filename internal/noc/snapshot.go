package noc

import (
	"sort"

	"nocsim/internal/snap"
)

// Checkpoint codec for the network primitives shared by every fabric:
// flits, packets, NICs and the stats block. Fabrics serialize pooled
// flits as full Flit values (via SnapshotFlit) and re-Alloc pool slots
// in canonical plane order on restore, so the pool itself — handle
// numbering, free-list order, plane capacity — is rebuilt rather than
// encoded: handle values never influence arbitration (Oldest-First
// orders by Inject/Seq/Index content), which is what keeps snapshots
// independent of allocation history.

func init() {
	snap.Cover(Flit{}, snap.Coverage{
		Serialized: []string{
			"Enq", "Inject", "Seq", "Token", "Src", "Dst",
			"Index", "Len", "Kind", "VC", "CongBit",
		},
	})
	snap.Cover(Packet{}, snap.Coverage{
		Serialized: []string{
			"Seq", "Token", "Src", "Dst", "Len", "Kind",
			"Enq", "Inject", "Eject", "CongBit",
		},
	})
	snap.Cover(NIC{}, snap.Coverage{
		Serialized: []string{"seq", "reqQ", "repQ", "pending", "delivered"},
		Waived: map[string]string{
			"node":   "construction: node id is part of the config",
			"notify": "construction: fabric wiring, re-hooked by the restored fabric",
		},
	})
	snap.Cover(pendingPacket{}, snap.Coverage{
		Serialized: []string{
			"seq", "got", "len", "kind", "src", "token",
			"enq", "inject", "congBit",
		},
	})
	snap.Cover(pendTable{}, snap.Coverage{
		Serialized: []string{"slots"},
		Waived: map[string]string{
			"count": "derived: recomputed by insert while rebuilding the table",
		},
	})
	snap.Cover(flitQueue{}, snap.Coverage{
		Serialized: []string{"buf", "count"},
		Waived: map[string]string{
			"head": "canonical: queues are encoded in FIFO order and restored head-normalized",
		},
	})
	snap.Cover(Stats{}, snap.Coverage{
		Serialized: []string{
			"Cycles", "FlitsInjected", "FlitsEjected", "PacketsDelivered",
			"Deflections", "LinkTraversals", "NetFlitLatencySum",
			"QueueLatencySum", "PacketLatencySum", "StarvedCycles",
			"ThrottledCycles", "WantedCycles", "BufferReads",
			"BufferWrites", "CrossbarTraversals", "Arbitrations",
		},
		Waived: map[string]string{
			"Links": "construction: link count is a topology property",
		},
	})
	snap.Cover(FlitPool{}, snap.Coverage{
		Waived: map[string]string{
			"hot":  "rebuilt: occupied slots are re-Alloced from serialized Flit content in canonical plane order",
			"cold": "rebuilt: occupied slots are re-Alloced from serialized Flit content in canonical plane order",
			"free": "rebuilt: the free list is a consequence of the canonical re-Alloc order",
		},
	})
	snap.Cover(FlitHot{}, snap.Coverage{
		Waived: map[string]string{
			"Inject":  "mirror: encoded via the full Flit (see Flit coverage)",
			"Seq":     "mirror: encoded via the full Flit (see Flit coverage)",
			"Dst":     "mirror: encoded via the full Flit (see Flit coverage)",
			"Index":   "mirror: encoded via the full Flit (see Flit coverage)",
			"Len":     "mirror: encoded via the full Flit (see Flit coverage)",
			"Kind":    "mirror: encoded via the full Flit (see Flit coverage)",
			"VC":      "mirror: encoded via the full Flit (see Flit coverage)",
			"CongBit": "mirror: encoded via the full Flit (see Flit coverage)",
		},
	})
	snap.Cover(FlitCold{}, snap.Coverage{
		Waived: map[string]string{
			"Enq":   "mirror: encoded via the full Flit (see Flit coverage)",
			"Token": "mirror: encoded via the full Flit (see Flit coverage)",
			"Src":   "mirror: encoded via the full Flit (see Flit coverage)",
		},
	})
}

const (
	tagNIC   = 0x17
	tagStats = 0x18
)

// SnapshotFlit encodes one flit.
func SnapshotFlit(w *snap.Writer, f *Flit) {
	w.I64(f.Enq)
	w.I64(f.Inject)
	w.U64(f.Seq)
	w.U64(f.Token)
	w.I32(f.Src)
	w.I32(f.Dst)
	w.U8(f.Index)
	w.U8(f.Len)
	w.U8(uint8(f.Kind))
	w.U8(uint8(f.VC))
	w.Bool(f.CongBit)
}

// RestoreFlit decodes one flit written by SnapshotFlit.
func RestoreFlit(r *snap.Reader, f *Flit) {
	f.Enq = r.I64()
	f.Inject = r.I64()
	f.Seq = r.U64()
	f.Token = r.U64()
	f.Src = r.I32()
	f.Dst = r.I32()
	f.Index = r.U8()
	f.Len = r.U8()
	f.Kind = Kind(r.U8())
	f.VC = int8(r.U8())
	f.CongBit = r.Bool()
}

// SnapshotPacket encodes one completed packet.
func SnapshotPacket(w *snap.Writer, p *Packet) {
	w.U64(p.Seq)
	w.U64(p.Token)
	w.I32(p.Src)
	w.I32(p.Dst)
	w.U8(p.Len)
	w.U8(uint8(p.Kind))
	w.I64(p.Enq)
	w.I64(p.Inject)
	w.I64(p.Eject)
	w.Bool(p.CongBit)
}

// RestorePacket decodes one packet written by SnapshotPacket.
func RestorePacket(r *snap.Reader, p *Packet) {
	p.Seq = r.U64()
	p.Token = r.U64()
	p.Src = r.I32()
	p.Dst = r.I32()
	p.Len = r.U8()
	p.Kind = Kind(r.U8())
	p.Enq = r.I64()
	p.Inject = r.I64()
	p.Eject = r.I64()
	p.CongBit = r.Bool()
}

func snapshotQueue(w *snap.Writer, q *flitQueue) {
	w.U32(uint32(q.count))
	for i := 0; i < q.count; i++ {
		SnapshotFlit(w, &q.buf[(q.head+i)&(len(q.buf)-1)])
	}
}

func restoreQueue(r *snap.Reader, q *flitQueue) {
	n := int(r.U32())
	*q = flitQueue{}
	var f Flit
	for i := 0; i < n; i++ {
		RestoreFlit(r, &f)
		if r.Err() != nil {
			return
		}
		q.push(f)
	}
}

// Snapshot encodes the NIC's injection queues, reassembly table and
// sequence counter. Queues are written in FIFO order and the pending
// table in ascending-seq order, so the encoding is independent of ring
// capacities and hash layout.
func (n *NIC) Snapshot(w *snap.Writer) {
	w.Tag(tagNIC)
	w.I32(n.node)
	w.U64(n.seq)
	snapshotQueue(w, &n.reqQ)
	snapshotQueue(w, &n.repQ)
	pend := make([]pendingPacket, 0, n.pending.count)
	for i := range n.pending.slots {
		if n.pending.slots[i].seq != 0 {
			pend = append(pend, n.pending.slots[i])
		}
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].seq < pend[j].seq })
	w.U32(uint32(len(pend)))
	for i := range pend {
		p := &pend[i]
		w.U64(p.seq)
		w.U8(p.got)
		w.U8(p.len)
		w.U8(uint8(p.kind))
		w.I32(p.src)
		w.U64(p.token)
		w.I64(p.enq)
		w.I64(p.inject)
		w.Bool(p.congBit)
	}
	// Delivered packets: drained by the harness every cycle, so this is
	// empty at any between-cycle snapshot point; encoded anyway so the
	// codec has no unstated preconditions.
	w.U32(uint32(len(n.delivered)))
	for i := range n.delivered {
		SnapshotPacket(w, &n.delivered[i])
	}
}

// Restore overlays state captured by Snapshot onto a NIC constructed
// for the same node.
func (n *NIC) Restore(r *snap.Reader) {
	r.Expect(tagNIC)
	if node := r.I32(); r.Err() == nil && node != n.node {
		r.Failf("NIC node %d, want %d", node, n.node)
		return
	}
	n.seq = r.U64()
	restoreQueue(r, &n.reqQ)
	restoreQueue(r, &n.repQ)
	np := int(r.U32())
	n.pending = pendTable{slots: make([]pendingPacket, 16)}
	for i := 0; i < np; i++ {
		var p pendingPacket
		p.seq = r.U64()
		p.got = r.U8()
		p.len = r.U8()
		p.kind = Kind(r.U8())
		p.src = r.I32()
		p.token = r.U64()
		p.enq = r.I64()
		p.inject = r.I64()
		p.congBit = r.Bool()
		if r.Err() != nil {
			return
		}
		n.pending.insert(p)
	}
	nd := int(r.U32())
	n.delivered = n.delivered[:0]
	for i := 0; i < nd; i++ {
		var p Packet
		RestorePacket(r, &p)
		if r.Err() != nil {
			return
		}
		n.delivered = append(n.delivered, p)
	}
}

// Snapshot encodes the stats block's event counters (Links is a
// topology property and stays with the constructed fabric).
func (s *Stats) Snapshot(w *snap.Writer) {
	w.Tag(tagStats)
	w.I64(s.Cycles)
	w.I64(s.FlitsInjected)
	w.I64(s.FlitsEjected)
	w.I64(s.PacketsDelivered)
	w.I64(s.Deflections)
	w.I64(s.LinkTraversals)
	w.I64(s.NetFlitLatencySum)
	w.I64(s.QueueLatencySum)
	w.I64(s.PacketLatencySum)
	w.I64(s.StarvedCycles)
	w.I64(s.ThrottledCycles)
	w.I64(s.WantedCycles)
	w.I64(s.BufferReads)
	w.I64(s.BufferWrites)
	w.I64(s.CrossbarTraversals)
	w.I64(s.Arbitrations)
}

// Restore overlays counters captured by Snapshot; Links is preserved.
func (s *Stats) Restore(r *snap.Reader) {
	r.Expect(tagStats)
	s.Cycles = r.I64()
	s.FlitsInjected = r.I64()
	s.FlitsEjected = r.I64()
	s.PacketsDelivered = r.I64()
	s.Deflections = r.I64()
	s.LinkTraversals = r.I64()
	s.NetFlitLatencySum = r.I64()
	s.QueueLatencySum = r.I64()
	s.PacketLatencySum = r.I64()
	s.StarvedCycles = r.I64()
	s.ThrottledCycles = r.I64()
	s.WantedCycles = r.I64()
	s.BufferReads = r.I64()
	s.BufferWrites = r.I64()
	s.CrossbarTraversals = r.I64()
	s.Arbitrations = r.I64()
}
