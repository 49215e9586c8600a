package noc

import (
	"testing"
	"testing/quick"

	"nocsim/internal/rng"
	"nocsim/internal/snap"
)

func TestOlderTotalOrder(t *testing.T) {
	r := rng.New(1)
	mk := func() Flit {
		return Flit{
			Inject: int64(r.Intn(5)),
			Seq:    uint64(r.Intn(8)),
			Index:  uint8(r.Intn(3)),
		}
	}
	// Antisymmetry and totality on distinct flits; irreflexivity on equal.
	for i := 0; i < 5000; i++ {
		a, b := mk(), mk()
		ab, ba := Older(&a, &b), Older(&b, &a)
		if a == b {
			if ab || ba {
				t.Fatal("Older not irreflexive on equal flits")
			}
			continue
		}
		if ab == ba {
			t.Fatalf("Older not total/antisymmetric for %+v vs %+v", a, b)
		}
	}
	// Transitivity.
	for i := 0; i < 5000; i++ {
		a, b, c := mk(), mk(), mk()
		if Older(&a, &b) && Older(&b, &c) && !Older(&a, &c) {
			t.Fatalf("Older not transitive for %+v %+v %+v", a, b, c)
		}
	}
}

func TestOlderPrefersGreaterAge(t *testing.T) {
	a := Flit{Inject: 5, Seq: 100}
	b := Flit{Inject: 9, Seq: 1}
	if !Older(&a, &b) {
		t.Error("flit injected earlier (greater age) must be older")
	}
}

func TestNICSendPopOrder(t *testing.T) {
	n := NewNIC(3)
	n.Send(7, Request, 11, 2, 10)
	n.Send(8, Request, 12, 1, 11)
	if n.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", n.QueueLen())
	}
	var got []int32
	for n.HasTraffic() {
		f := n.Pop()
		got = append(got, f.Dst)
	}
	want := []int32{7, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestNICReplyPriority(t *testing.T) {
	n := NewNIC(0)
	n.Send(1, Request, 0, 1, 0)
	n.Send(2, Reply, 0, 1, 0)
	if h := n.Head(); h.Kind != Reply {
		t.Fatalf("head kind %v, want reply to bypass request", h.Kind)
	}
	f := n.Pop()
	if f.Kind != Reply {
		t.Fatal("Pop must drain reply queue first")
	}
	if n.Head().Kind != Request {
		t.Fatal("request should follow after replies drain")
	}
}

func TestNICSeqUnique(t *testing.T) {
	a := NewNIC(0)
	b := NewNIC(1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		for _, n := range []*NIC{a, b} {
			s := n.Send(2, Request, 0, 1, 0)
			if seen[s] {
				t.Fatalf("duplicate seq %d", s)
			}
			seen[s] = true
		}
	}
}

func TestNICReassembly(t *testing.T) {
	src := NewNIC(0)
	dst := NewNIC(5)
	seq := src.Send(5, Reply, 42, 4, 100)
	var flits []Flit
	for src.HasTraffic() {
		f := src.Pop()
		f.Inject = 110
		flits = append(flits, f)
	}
	// Deliver out of order, as deflection routing can.
	order := []int{2, 0, 3, 1}
	for i, idx := range order {
		_, done := dst.Receive(&flits[idx], int64(200+i))
		if done != (i == len(order)-1) {
			t.Fatalf("packet completed at flit %d of %d", i+1, len(order))
		}
	}
	d := dst.Delivered()
	if len(d) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(d))
	}
	p := d[0]
	if p.Seq != seq || p.Token != 42 || p.Src != 0 || p.Dst != 5 || p.Len != 4 {
		t.Errorf("bad packet %+v", p)
	}
	if p.Enq != 100 || p.Inject != 110 || p.Eject != 203 {
		t.Errorf("bad timestamps %+v", p)
	}
	if dst.PendingPackets() != 0 {
		t.Error("pending packet not cleared after completion")
	}
	if len(dst.Delivered()) != 0 {
		t.Error("Delivered did not reset")
	}
}

func TestNICCongBitAggregation(t *testing.T) {
	src := NewNIC(0)
	dst := NewNIC(1)
	src.Send(1, Request, 0, 2, 0)
	f1, f2 := src.Pop(), src.Pop()
	f2.CongBit = true
	dst.Receive(&f1, 1)
	pkt, done := dst.Receive(&f2, 2)
	if !done || !pkt.CongBit {
		t.Error("congestion bit should OR across flits")
	}
}

// Property: the flit queue preserves FIFO order through interleaved
// pushes and pops, including across ring growth and wrap-around.
func TestFlitQueueFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		var q flitQueue
		next := uint64(0)
		expect := uint64(0)
		for _, push := range ops {
			if push {
				q.push(Flit{Seq: next})
				next++
			} else if !q.empty() {
				if q.pop().Seq != expect {
					return false
				}
				expect++
			}
		}
		for !q.empty() {
			if q.pop().Seq != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFlitQueueCapacity pins the ring's memory contract: capacity
// tracks peak depth, not cumulative throughput, so a long-lived
// shallow queue stops allocating after its first push.
func TestFlitQueueCapacity(t *testing.T) {
	var q flitQueue
	next, expect := uint64(0), uint64(0)
	for i := 0; i < 100_000; i++ {
		q.push(Flit{Seq: next})
		next++
		if i%3 == 0 { // depth grows slowly, drains below
			continue
		}
		if q.pop().Seq != expect {
			t.Fatal("FIFO violated")
		}
		expect++
	}
	for !q.empty() {
		if q.pop().Seq != expect {
			t.Fatal("FIFO violated during drain")
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d flits, pushed %d", expect, next)
	}
	// Peak depth was ~33334; capacity must be the next power of two,
	// not proportional to the 100k flits that passed through.
	if len(q.buf) != 65536 {
		t.Errorf("capacity = %d, want 65536 (next power of two above peak depth)", len(q.buf))
	}
}

// TestFlitQueueShallowStaysSmall: a queue that never exceeds depth 2
// keeps its initial 16-slot ring no matter how many flits pass.
func TestFlitQueueShallowStaysSmall(t *testing.T) {
	var q flitQueue
	for i := 0; i < 10_000; i++ {
		q.push(Flit{Seq: uint64(2 * i)})
		q.push(Flit{Seq: uint64(2*i + 1)})
		if q.pop().Seq != uint64(2*i) || q.pop().Seq != uint64(2*i+1) {
			t.Fatal("FIFO violated")
		}
	}
	if len(q.buf) != 16 {
		t.Errorf("capacity = %d, want the initial 16", len(q.buf))
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{
		Cycles: 100, Links: 48,
		LinkTraversals:    2400,
		FlitsEjected:      10,
		NetFlitLatencySum: 150,
		FlitsInjected:     20,
		QueueLatencySum:   100,
		PacketsDelivered:  5,
		PacketLatencySum:  250,
		Deflections:       240,
		StarvedCycles:     80,
	}
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := s.AvgNetLatency(); got != 15 {
		t.Errorf("AvgNetLatency = %v, want 15", got)
	}
	if got := s.AvgQueueLatency(); got != 5 {
		t.Errorf("AvgQueueLatency = %v, want 5", got)
	}
	if got := s.AvgPacketLatency(); got != 50 {
		t.Errorf("AvgPacketLatency = %v, want 50", got)
	}
	if got := s.DeflectionRate(); got != 0.1 {
		t.Errorf("DeflectionRate = %v, want 0.1", got)
	}
	if got := s.StarvationRate(16); got != 0.05 {
		t.Errorf("StarvationRate = %v, want 0.05", got)
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var s Stats
	if s.Utilization() != 0 || s.AvgNetLatency() != 0 || s.AvgQueueLatency() != 0 ||
		s.AvgPacketLatency() != 0 || s.DeflectionRate() != 0 || s.StarvationRate(0) != 0 {
		t.Error("zero stats must yield zero rates, not NaN")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Cycles: 10, Links: 48, FlitsInjected: 100, StarvedCycles: 5}
	b := Stats{Cycles: 4, Links: 48, FlitsInjected: 60, StarvedCycles: 2}
	d := a.Sub(b)
	if d.Cycles != 6 || d.FlitsInjected != 40 || d.StarvedCycles != 3 || d.Links != 48 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestKindString(t *testing.T) {
	if Request.String() != "request" || Reply.String() != "reply" || Control.String() != "control" {
		t.Error("Kind.String mismatch")
	}
}

func TestOpenPolicy(t *testing.T) {
	var p Open
	if !p.Allow(3) {
		t.Error("Open must always allow")
	}
	if p.MarkCongested(0) {
		t.Error("Open must never mark")
	}
	p.Tick(0, true, false, false) // must not panic
}

func TestSendPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send with 0 flits did not panic")
		}
	}()
	NewNIC(0).Send(1, Request, 0, 0, 0)
}

func TestThrottledKind(t *testing.T) {
	if !ThrottledKind(Request) || !ThrottledKind(Writeback) {
		t.Error("requests and writebacks are application traffic: throttled")
	}
	if ThrottledKind(Reply) || ThrottledKind(Control) {
		t.Error("replies and control traffic must bypass the throttle")
	}
}

func TestWritebackQueuesWithRequests(t *testing.T) {
	n := NewNIC(0)
	n.Send(1, Writeback, 0, 2, 0)
	if h := n.HeadRequest(); h == nil || h.Kind != Writeback {
		t.Error("writebacks must queue on the request (throttled) side")
	}
	if n.HeadReply() != nil {
		t.Error("writeback leaked into the reply queue")
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{Kind: Reply, Seq: 9, Src: 1, Dst: 2, Len: 3}
	if s := p.String(); s == "" {
		t.Error("empty packet string")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind must say so")
	}
}

// TestSeqLayoutChecked pins the Seq layout node<<SeqCounterBits |
// counter as an invariant: NewNIC refuses a node that does not fit
// below MaxSeqNode, and Send spends the counter up to
// 2^SeqCounterBits-1, then panics with the prebuilt error rather than
// carry into the node bits.
func TestSeqLayoutChecked(t *testing.T) {
	mustPanic := func(what string, fn func()) any {
		t.Helper()
		var got any
		func() {
			defer func() { got = recover() }()
			fn()
		}()
		if got == nil {
			t.Fatalf("%s did not panic", what)
		}
		return got
	}
	mustPanic("NewNIC(MaxSeqNode)", func() { NewNIC(MaxSeqNode) })
	mustPanic("NewNIC(-1)", func() { NewNIC(-1) })

	n := NewNIC(MaxSeqNode - 1)
	n.seq = 1<<SeqCounterBits - 2
	want := uint64(MaxSeqNode-1)<<SeqCounterBits | (1<<SeqCounterBits - 1)
	if seq := n.Send(0, Request, 0, 1, 0); seq != want {
		t.Fatalf("last Seq %#x, want %#x", seq, want)
	}
	if got := mustPanic("Send past the counter", func() { n.Send(0, Request, 0, 1, 0) }); got != errSeqExhausted {
		t.Fatalf("Send panicked with %v, want errSeqExhausted", got)
	}
	if n.QueueLen() != 1 {
		t.Fatalf("refused Send queued flits: %d queued, want 1", n.QueueLen())
	}
}

// TestNICDecodeBoundsCounter: a restored packet counter must sit below
// maxRestoredSeq, far from Send's exhaustion panic.
func TestNICDecodeBoundsCounter(t *testing.T) {
	for _, c := range []struct {
		seq uint64
		ok  bool
	}{
		{maxRestoredSeq - 1, true},
		{maxRestoredSeq, false},
		{1<<SeqCounterBits - 1, false},
		{^uint64(0), false},
	} {
		src := NewNIC(3)
		src.Send(1, Request, 0, 2, 0)
		src.seq = c.seq
		w := snap.NewWriter()
		snap.Encode(w, src)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		dst := NewNIC(3)
		snap.Decode(r, dst)
		if ok := r.Err() == nil; ok != c.ok {
			t.Errorf("counter %#x: restored %v, want %v (err %v)", c.seq, ok, c.ok, r.Err())
		}
	}
}
