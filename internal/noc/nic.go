package noc

import (
	"errors"
	"fmt"
)

// NIC is a node's network interface. It holds the processor-side
// injection queues (bufferless routers have no in-network buffers, so
// flits wait here until an output link is free — §2.2), reassembles
// arriving flits into packets, and hands completed packets to the node.
//
// Two queues are kept: replies bypass requests so that throttling a
// node's own requests can never block the responses it owes other nodes
// (§5 "How to Throttle").
type NIC struct {
	node int32
	seq  uint64

	reqQ flitQueue
	repQ flitQueue

	pending   pendTable
	delivered []Packet

	// notify, when set, fires whenever Send turns an empty NIC
	// non-empty; the active-set fabrics use it to wake the node.
	notify func(node int)
}

// pendingPacket is one partially reassembled packet. seq doubles as
// the hash key and the empty-slot marker: real sequence numbers are
// never zero (Send pre-increments the per-node counter).
type pendingPacket struct {
	seq     uint64
	got     uint8
	len     uint8
	kind    Kind
	src     int32
	token   uint64
	enq     int64
	inject  int64
	congBit bool
}

// pendTable is an open-addressed, linear-probe hash of in-progress
// reassemblies, stored inline. It replaces a map[uint64]*pendingPacket
// whose per-packet heap allocation was the last steady-state allocator
// on the ejection path; the table allocates only when it doubles, so
// it goes quiet once sized to the peak concurrent-reassembly count.
type pendTable struct {
	slots []pendingPacket
	count int
}

// hashSeq is SplitMix64's finisher: packet sequence numbers are highly
// structured (node ID in the high bits, a counter below), so they need
// a full-avalanche mix before masking.
func hashSeq(seq uint64) uint64 {
	seq = (seq ^ (seq >> 30)) * 0xbf58476d1ce4e5b9
	seq = (seq ^ (seq >> 27)) * 0x94d049bb133111eb
	return seq ^ (seq >> 31)
}

// lookup returns the slot holding seq, or nil. The pointer is valid
// only until the next insert or remove.
func (t *pendTable) lookup(seq uint64) *pendingPacket {
	mask := uint64(len(t.slots) - 1)
	for i := hashSeq(seq) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.seq == seq {
			return s
		}
		if s.seq == 0 {
			return nil
		}
	}
}

// insert adds pp (whose seq must not be present) and returns its slot.
// The pointer is valid only until the next insert or remove.
func (t *pendTable) insert(pp pendingPacket) *pendingPacket {
	if (t.count+1)*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashSeq(pp.seq) & mask; ; i = (i + 1) & mask {
		if t.slots[i].seq == 0 {
			t.slots[i] = pp
			t.count++
			return &t.slots[i]
		}
	}
}

func (t *pendTable) grow() {
	old := t.slots
	t.slots = make([]pendingPacket, len(old)*2)
	t.count = 0
	for i := range old {
		if old[i].seq != 0 {
			t.insert(old[i])
		}
	}
}

// remove deletes seq, which must be present, using backward-shift
// deletion so probe chains stay intact without tombstones.
func (t *pendTable) remove(seq uint64) {
	mask := uint64(len(t.slots) - 1)
	i := hashSeq(seq) & mask
	for t.slots[i].seq != seq {
		i = (i + 1) & mask
	}
	for {
		t.slots[i] = pendingPacket{}
		j := i
		for {
			j = (j + 1) & mask
			if t.slots[j].seq == 0 {
				t.count--
				return
			}
			// Slot j can fill the hole at i only if its home position
			// is cyclically at-or-before i (otherwise moving it would
			// break its own probe chain).
			home := hashSeq(t.slots[j].seq) & mask
			if (j-home)&mask >= (j-i)&mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// flitQueue is a circular FIFO of flits. The ring's capacity tracks
// the queue's actual peak depth (a handful of flits at sub-saturation
// rates), not its cumulative throughput, so every queue reaches its
// terminal capacity on the first push and steady-state stepping never
// reallocates. The previous append-and-compact design kept a buffer
// proportional to its compaction threshold and reached it only after
// ~64 pops per queue — on a 4096-node mesh that trickle of late
// growths kept the hot path allocating for hundreds of thousands of
// cycles. Capacity is kept a power of two so indexing is a mask.
type flitQueue struct {
	buf   []Flit
	head  int
	count int
}

func (q *flitQueue) push(f Flit) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = f
	q.count++
}

func (q *flitQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]Flit, n)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

func (q *flitQueue) len() int    { return q.count }
func (q *flitQueue) empty() bool { return q.count == 0 }
func (q *flitQueue) peek() *Flit { return &q.buf[q.head] }
func (q *flitQueue) pop() Flit {
	f := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return f
}

// Packet sequence numbers are node<<SeqCounterBits | counter, with a
// per-node counter starting at 1. The layout is what makes Seq
// network-unique, which the Oldest-First total order rests on, so both
// parts are bounded: nodes below MaxSeqNode (the bufferless fabric also
// packs Seq<<8 | Index into one word, which needs Seq < 2^56), and the
// counter below 2^SeqCounterBits, where Send panics rather than let it
// carry into the node bits and duplicate a Seq.
const (
	SeqCounterBits = 40
	MaxSeqNode     = 1 << 16
)

// errSeqExhausted is Send's panic once a NIC's packet counter is
// spent, prebuilt so the hot path formats nothing.
var errSeqExhausted = errors.New("noc: NIC packet counter exhausted (2^40 packets)")

// NewNIC returns a NIC for the given node ID, which must be below
// MaxSeqNode. The delivered list gets capacity for one cycle's worth of
// completions up front (EjectWidth bounds it) so the first busy cycle
// does not allocate mid-run.
func NewNIC(node int) *NIC {
	if node < 0 || node >= MaxSeqNode {
		panic(fmt.Sprintf("noc: node %d outside the packet sequence layout (limit %d)", node, MaxSeqNode))
	}
	return &NIC{
		node:      int32(node),
		pending:   pendTable{slots: make([]pendingPacket, 16)},
		delivered: make([]Packet, 0, 4),
	}
}

// Node returns the node this NIC belongs to.
func (n *NIC) Node() int { return int(n.node) }

// SetNotify registers fn, called with the node ID whenever Send turns
// an empty NIC non-empty. Active-set fabrics hook this to re-flag the
// node for processing; Sends happen between fabric Steps.
func (n *NIC) SetNotify(fn func(node int)) { n.notify = fn }

// Send enqueues a packet of nflits flits of the given kind toward dst.
// cycle timestamps queue entry. It returns the packet's sequence number.
func (n *NIC) Send(dst int, kind Kind, token uint64, nflits int, cycle int64) uint64 {
	if nflits < 1 || nflits > 255 {
		panic("noc: packet length out of range")
	}
	if n.seq >= 1<<SeqCounterBits-1 {
		panic(errSeqExhausted)
	}
	wasEmpty := n.reqQ.empty() && n.repQ.empty()
	n.seq++
	seq := uint64(n.node)<<SeqCounterBits | n.seq
	f := Flit{
		Enq:   cycle,
		Seq:   seq,
		Token: token,
		Src:   n.node,
		Dst:   int32(dst),
		Len:   uint8(nflits),
		Kind:  kind,
	}
	q := &n.reqQ
	if kind != Request && kind != Writeback {
		q = &n.repQ
	}
	for i := 0; i < nflits; i++ {
		f.Index = uint8(i)
		q.push(f)
	}
	if wasEmpty && n.notify != nil {
		n.notify(int(n.node))
	}
	return seq
}

// QueueLen returns the number of flits waiting for injection.
func (n *NIC) QueueLen() int { return n.reqQ.len() + n.repQ.len() }

// HasTraffic reports whether any flit is waiting for injection.
func (n *NIC) HasTraffic() bool { return !n.reqQ.empty() || !n.repQ.empty() }

// Head returns the flit that would be injected next (replies have
// priority over requests) without removing it, or nil if none.
func (n *NIC) Head() *Flit {
	if !n.repQ.empty() {
		return n.repQ.peek()
	}
	if !n.reqQ.empty() {
		return n.reqQ.peek()
	}
	return nil
}

// Pop removes and returns the head flit. It panics if the NIC is empty.
func (n *NIC) Pop() Flit {
	if !n.repQ.empty() {
		return n.repQ.pop()
	}
	return n.reqQ.pop()
}

// HeadRequest returns the front flit of the request queue, or nil. The
// buffered fabric binds each injection pseudo-VC to one queue so that a
// reply arriving mid-packet never interleaves with a request packet's
// flit stream.
func (n *NIC) HeadRequest() *Flit {
	if n.reqQ.empty() {
		return nil
	}
	return n.reqQ.peek()
}

// HeadReply returns the front flit of the reply/control queue, or nil.
func (n *NIC) HeadReply() *Flit {
	if n.repQ.empty() {
		return nil
	}
	return n.repQ.peek()
}

// PopRequest removes and returns the front request flit.
func (n *NIC) PopRequest() Flit { return n.reqQ.pop() }

// PopReply removes and returns the front reply/control flit.
func (n *NIC) PopReply() Flit { return n.repQ.pop() }

// Receive accepts an ejected flit, reassembling it into its packet. When
// the final flit arrives the completed packet is queued for Delivered and
// returned with done=true. A single-flit packet is complete on arrival,
// so it never touches the reassembly table.
func (n *NIC) Receive(f *Flit, cycle int64) (pkt Packet, done bool) {
	one := pendingPacket{
		seq:    f.Seq,
		len:    f.Len,
		kind:   f.Kind,
		src:    f.Src,
		token:  f.Token,
		enq:    f.Enq,
		inject: f.Inject,
	}
	p := &one
	if f.Len != 1 {
		if p = n.pending.lookup(f.Seq); p == nil {
			p = n.pending.insert(one)
		}
	}
	p.got++
	if f.Inject < p.inject {
		p.inject = f.Inject
	}
	if f.CongBit {
		p.congBit = true
	}
	if p.got != p.len {
		return Packet{}, false
	}
	pkt = Packet{
		Seq:     f.Seq,
		Token:   p.token,
		Src:     p.src,
		Dst:     n.node,
		Len:     p.len,
		Kind:    p.kind,
		Enq:     p.enq,
		Inject:  p.inject,
		Eject:   cycle,
		CongBit: p.congBit,
	}
	if f.Len != 1 {
		n.pending.remove(f.Seq)
	}
	n.delivered = append(n.delivered, pkt)
	return pkt, true
}

// Delivered returns the packets completed since the last call and resets
// the list. The returned slice is only valid until the next call.
func (n *NIC) Delivered() []Packet {
	d := n.delivered
	n.delivered = n.delivered[:0]
	return d
}

// PendingPackets returns the number of partially reassembled packets.
func (n *NIC) PendingPackets() int { return n.pending.count }
