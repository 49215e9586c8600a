package noc

import (
	"sort"

	"nocsim/internal/snap"
)

// Checkpoint codec for the network primitives shared by every fabric:
// flits, packets, NICs and the stats block. Fabrics serialize pooled
// flits as full Flit values and re-Alloc pool slots in canonical plane
// order on restore, so the pool itself — handle numbering, free-list
// order, plane capacity — is rebuilt rather than encoded: handle values
// never influence arbitration (Oldest-First orders by Inject/Seq/Index
// content), which is what keeps snapshots independent of allocation
// history. Queues are written in FIFO order and the reassembly table in
// ascending-seq order, so the encoding is independent of ring
// capacities and hash layout.

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
		Waived: map[string]string{
			"slots": "hook: live entries in ascending-seq order, re-inserted on restore",
			"count": "derived: recomputed by insert while rebuilding the table",
		},
	})
	snap.Cover(flitQueue{}, snap.Coverage{
		Waived: map[string]string{
			"buf":   "hook: flits in FIFO order, restored head-normalized",
			"count": "hook: the encoded flit count",
			"head":  "canonical: queues are encoded in FIFO order and restored head-normalized",
		},
	})
	snap.Cover(Stats{}, snap.Coverage{
		Serialized: []string{
			"Cycles", "Links", "FlitsInjected", "FlitsEjected", "PacketsDelivered",
			"Deflections", "LinkTraversals", "NetFlitLatencySum",
			"QueueLatencySum", "PacketLatencySum", "StarvedCycles",
			"ThrottledCycles", "WantedCycles", "BufferReads",
			"BufferWrites", "CrossbarTraversals", "Arbitrations",
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

// maxRestoredSeq bounds a restored NIC's packet counter: half of
// Send's 2^SeqCounterBits limit, so no run resumed from a checkpoint
// comes anywhere near Send's exhaustion panic.
const maxRestoredSeq = 1 << (SeqCounterBits - 1)

// DecodeSnap rejects a packet counter at or past maxRestoredSeq.
func (n *NIC) DecodeSnap(r *snap.Reader) {
	if n.seq >= maxRestoredSeq {
		r.Failf("NIC %d packet counter %#x at or past %#x", n.node, n.seq, uint64(maxRestoredSeq))
	}
}

// EncodeSnap writes the queued flits in FIFO order.
func (q *flitQueue) EncodeSnap(w *snap.Writer) {
	w.U32(uint32(q.count))
	for i := 0; i < q.count; i++ {
		snap.Encode(w, &q.buf[(q.head+i)&(len(q.buf)-1)])
	}
}

// DecodeSnap refills the queue head-normalized, growing it only as
// flits actually decode, and checks that the flits form whole packets
// in order (the first possibly begun), as Send queued them.
func (q *flitQueue) DecodeSnap(r *snap.Reader) {
	n := int(r.U32())
	*q = flitQueue{}
	for i := 0; i < n && r.Err() == nil; i++ {
		var f Flit
		snap.Decode(r, &f)
		if i > 0 && !Follows(q.peekLast(), &f) {
			r.Failf("NIC queue breaks packet %#x", f.Seq)
		}
		if r.Err() == nil {
			q.push(f)
		}
	}
}

func (q *flitQueue) peekLast() *Flit { return &q.buf[(q.head+q.count-1)&(len(q.buf)-1)] }

// Follows reports whether b may come right after a in a FIFO: the next
// flit of a's packet, or the head of a new packet once a is a tail.
func Follows(a, b *Flit) bool {
	if a.Index+1 == a.Len {
		return b.Index == 0
	}
	return b.Seq == a.Seq && b.Index == a.Index+1
}

// EncodeSnap writes the live reassembly entries in ascending-seq order.
func (t *pendTable) EncodeSnap(w *snap.Writer) {
	live := make([]pendingPacket, 0, t.count)
	for _, p := range t.slots {
		if p.seq != 0 {
			live = append(live, p)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	snap.Encode(w, &live)
}

// DecodeSnap rebuilds the table from the encoded entries.
func (t *pendTable) DecodeSnap(r *snap.Reader) {
	var live []pendingPacket
	snap.Decode(r, &live)
	if r.Err() != nil {
		return
	}
	*t = pendTable{slots: make([]pendingPacket, 16)}
	for _, p := range live {
		if p.seq == 0 || t.lookup(p.seq) != nil {
			r.Failf("NIC reassembly entry seq %d is zero or repeated", p.seq)
			return
		}
		t.insert(p)
	}
}

// Flits calls fn with every flit the NIC holds: the injection queues,
// then each reassembly entry and undrained packet as its head flit.
func (n *NIC) Flits(fn func(*Flit)) {
	for _, q := range []*flitQueue{&n.reqQ, &n.repQ} {
		for i := 0; i < q.count; i++ {
			fn(&q.buf[(q.head+i)&(len(q.buf)-1)])
		}
	}
	for _, p := range n.pending.slots {
		if p.seq != 0 {
			fn(&Flit{Seq: p.seq, Token: p.token, Src: p.src, Dst: n.node, Len: p.len, Kind: p.kind})
		}
	}
	for _, p := range n.delivered {
		fn(&Flit{Seq: p.Seq, Token: p.Token, Src: p.Src, Dst: p.Dst, Len: p.Len, Kind: p.Kind})
	}
}

// Live calls fn with every allocated flit.
func (p *FlitPool) Live(fn func(*Flit)) {
	free := make([]bool, len(p.hot))
	for _, h := range p.free {
		free[h] = true
	}
	var f Flit
	for h := 1; h < len(p.hot); h++ {
		if !free[h] {
			p.Get(Handle(h), &f)
			fn(&f)
		}
	}
}
