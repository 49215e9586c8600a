package bless

import (
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/rng"
	"nocsim/internal/topology"
)

func mesh(k int) *topology.Topology { return topology.NewSquare(topology.Mesh, k) }

func newFabric(k int, opts ...func(*Config)) *Fabric {
	cfg := Config{Topology: mesh(k)}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

// runUntilDrained steps until no traffic remains or maxCycles elapse.
func runUntilDrained(t *testing.T, f *Fabric, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if f.Drained() {
			return
		}
		f.Step()
	}
	if !f.Drained() {
		t.Fatalf("network not drained after %d cycles (inflight=%d)", maxCycles, f.InFlight())
	}
}

func TestSingleFlitDelivery(t *testing.T) {
	f := newFabric(4)
	src, dst := 0, 15
	f.NIC(src).Send(dst, noc.Request, 7, 1, 0)
	runUntilDrained(t, f, 200)
	d := f.NIC(dst).Delivered()
	if len(d) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(d))
	}
	p := d[0]
	if p.Token != 7 || int(p.Src) != src || int(p.Dst) != dst {
		t.Errorf("bad packet %+v", p)
	}
	// 6 hops at 3 cycles each = 18 cycles of pure network latency.
	if net := p.Eject - p.Inject; net != 18 {
		t.Errorf("uncontended net latency = %d, want 18", net)
	}
}

func TestMultiFlitReassembly(t *testing.T) {
	f := newFabric(4)
	f.NIC(2).Send(13, noc.Reply, 9, 4, 0)
	runUntilDrained(t, f, 400)
	d := f.NIC(13).Delivered()
	if len(d) != 1 || d[0].Len != 4 {
		t.Fatalf("want one 4-flit packet, got %v", d)
	}
	s := f.Stats()
	if s.FlitsInjected != 4 || s.FlitsEjected != 4 {
		t.Errorf("flit counts inj=%d ej=%d, want 4/4", s.FlitsInjected, s.FlitsEjected)
	}
}

// Property: flit conservation — everything injected is eventually ejected
// exactly once, under heavy random traffic.
func TestFlitConservation(t *testing.T) {
	f := newFabric(8)
	r := rng.New(42)
	sent := 0
	for cycle := 0; cycle < 2000; cycle++ {
		if cycle < 1000 {
			for n := 0; n < 64; n++ {
				if r.Bool(0.2) {
					dst := r.Intn(64)
					if dst != n {
						f.NIC(n).Send(dst, noc.Request, uint64(cycle), 1, f.Cycle())
						sent++
					}
				}
			}
		}
		f.Step()
	}
	runUntilDrained(t, f, 100000)
	s := f.Stats()
	if s.FlitsInjected != int64(sent) {
		t.Errorf("injected %d, want %d", s.FlitsInjected, sent)
	}
	if s.FlitsEjected != int64(sent) {
		t.Errorf("ejected %d, want %d (flits lost or duplicated)", s.FlitsEjected, sent)
	}
	total := 0
	for n := 0; n < 64; n++ {
		total += len(f.NIC(n).Delivered())
	}
	if total != sent {
		t.Errorf("delivered %d packets, want %d", total, sent)
	}
}

// Property: packets are delivered to the correct node only.
func TestDeliveryAddressing(t *testing.T) {
	f := newFabric(4)
	r := rng.New(7)
	want := make(map[int]int)
	for i := 0; i < 200; i++ {
		src, dst := r.Intn(16), r.Intn(16)
		if src == dst {
			continue
		}
		f.NIC(src).Send(dst, noc.Request, uint64(dst), 2, f.Cycle())
		want[dst]++
		f.Step()
	}
	runUntilDrained(t, f, 50000)
	for n := 0; n < 16; n++ {
		got := f.NIC(n).Delivered()
		if len(got) != want[n] {
			t.Errorf("node %d got %d packets, want %d", n, len(got), want[n])
		}
		for _, p := range got {
			if int(p.Dst) != n || p.Token != uint64(n) {
				t.Errorf("node %d received foreign packet %+v", n, p)
			}
		}
	}
}

// Oldest-First must deliver the oldest flit without deflection: inject a
// burst and check the first-injected packet has minimal latency even
// under contention toward a single hotspot.
func TestOldestFirstPriority(t *testing.T) {
	f := newFabric(4)
	dst := 15
	// Node 0 injects first; all other nodes flood the same destination.
	f.NIC(0).Send(dst, noc.Request, 999, 1, 0)
	f.Step()
	for n := 1; n < 15; n++ {
		for i := 0; i < 4; i++ {
			f.NIC(n).Send(dst, noc.Request, uint64(n), 1, f.Cycle())
		}
	}
	runUntilDrained(t, f, 20000)
	var first noc.Packet
	found := false
	for _, p := range f.NIC(dst).Delivered() {
		if p.Token == 999 {
			first = p
			found = true
		}
	}
	if !found {
		t.Fatal("oldest packet never delivered")
	}
	// 6 hops * 3 cycles; it was injected before the flood so it should
	// see an uncontended path.
	if net := first.Eject - first.Inject; net != 18 {
		t.Errorf("oldest flit latency %d, want 18 (it must never lose arbitration)", net)
	}
}

// Starvation: a node surrounded by heavy through-traffic should record
// starved cycles when its output links are all occupied.
func TestStarvationAccounting(t *testing.T) {
	f := newFabric(4)
	r := rng.New(3)
	for cycle := 0; cycle < 3000; cycle++ {
		for n := 0; n < 16; n++ {
			if f.NIC(n).QueueLen() < 8 {
				dst := r.Intn(16)
				if dst != n {
					f.NIC(n).Send(dst, noc.Request, 0, 4, f.Cycle())
				}
			}
		}
		f.Step()
	}
	s := f.Stats()
	if s.WantedCycles == 0 {
		t.Fatal("no injection attempts recorded")
	}
	if s.StarvedCycles == 0 {
		t.Error("heavy load should starve some injections")
	}
	if s.StarvedCycles > s.WantedCycles {
		t.Error("starved cycles cannot exceed wanted cycles")
	}
}

func TestDeflectionsHappenUnderLoad(t *testing.T) {
	f := newFabric(4)
	// Everyone sends to node 5 — guaranteed port contention.
	for round := 0; round < 50; round++ {
		for n := 0; n < 16; n++ {
			if n != 5 {
				f.NIC(n).Send(5, noc.Request, 0, 2, f.Cycle())
			}
		}
		f.Step()
	}
	runUntilDrained(t, f, 50000)
	if f.Stats().Deflections == 0 {
		t.Error("hotspot traffic must cause deflections")
	}
}

func TestNoDeflectionsWhenAlone(t *testing.T) {
	f := newFabric(8)
	f.NIC(0).Send(63, noc.Request, 0, 1, 0)
	runUntilDrained(t, f, 200)
	if d := f.Stats().Deflections; d != 0 {
		t.Errorf("lone flit deflected %d times", d)
	}
}

type blockAllPolicy struct{ ticks, wants int }

func (p *blockAllPolicy) Allow(int) bool { return false }

// Tick also fires for reply injections, which legitimately bypass Allow,
// so it only counts outcomes.
func (p *blockAllPolicy) Tick(_ int, wanted, injected, throttled bool) {
	p.ticks++
	if wanted {
		p.wants++
	}
}
func (p *blockAllPolicy) MarkCongested(int) bool { return false }

func TestPolicyBlocksRequests(t *testing.T) {
	pol := &blockAllPolicy{}
	f := newFabric(4, func(c *Config) { c.Policy = pol })
	f.NIC(0).Send(5, noc.Request, 0, 1, 0)
	for i := 0; i < 50; i++ {
		f.Step()
	}
	if f.Stats().FlitsInjected != 0 {
		t.Error("blocked request was injected")
	}
	if pol.wants == 0 {
		t.Error("policy never observed the injection attempt")
	}
	if got := f.Stats().ThrottledCycles; got == 0 {
		t.Error("throttle-blocked cycles must be counted as throttled")
	}
	if got := f.Stats().StarvedCycles; got != 0 {
		t.Errorf("throttle-blocked cycles must not count as starved, got %d", got)
	}
}

func TestPolicyDoesNotBlockReplies(t *testing.T) {
	f := newFabric(4, func(c *Config) { c.Policy = &blockAllPolicy{} })
	f.NIC(0).Send(5, noc.Reply, 0, 1, 0)
	runUntilDrained(t, f, 200)
	if len(f.NIC(5).Delivered()) != 1 {
		t.Error("reply must bypass the throttle")
	}
}

type markPolicy struct{ node int }

func (p *markPolicy) Allow(int) bool             { return true }
func (p *markPolicy) Tick(int, bool, bool, bool) {}
func (p *markPolicy) MarkCongested(n int) bool   { return n == p.node }

func TestCongestionBitPropagates(t *testing.T) {
	// Route 0 -> 3 passes through nodes 1 and 2 in a 4x4 mesh (XY).
	f := newFabric(4, func(c *Config) { c.Policy = &markPolicy{node: 1} })
	f.NIC(0).Send(3, noc.Request, 0, 1, 0)
	runUntilDrained(t, f, 200)
	d := f.NIC(3).Delivered()
	if len(d) != 1 || !d[0].CongBit {
		t.Error("congestion bit set at a transit node must arrive at the destination")
	}
	// A path that avoids the marked node must arrive clean.
	f2 := newFabric(4, func(c *Config) { c.Policy = &markPolicy{node: 1} })
	f2.NIC(4).Send(7, noc.Request, 0, 1, 0) // row y=1, never touches node 1
	runUntilDrained(t, f2, 200)
	d2 := f2.NIC(7).Delivered()
	if len(d2) != 1 || d2[0].CongBit {
		t.Error("congestion bit must not be set on unmarked paths")
	}
}

func TestTorusDelivery(t *testing.T) {
	f := New(Config{Topology: topology.NewSquare(topology.Torus, 4)})
	f.NIC(0).Send(15, noc.Request, 0, 1, 0)
	runUntilDrained(t, f, 200)
	p := f.NIC(15).Delivered()
	if len(p) != 1 {
		t.Fatal("torus did not deliver")
	}
	// Torus distance (0,0)->(3,3) is 2 hops via wraps: 6 cycles.
	if net := p[0].Eject - p[0].Inject; net != 6 {
		t.Errorf("torus latency %d, want 6", net)
	}
}

func TestEjectWidthLimit(t *testing.T) {
	// With eject width 1, two flits arriving simultaneously for the same
	// node cannot both leave the network in one cycle: one is deflected.
	f := newFabric(3, func(c *Config) { c.EjectWidth = 1 })
	// Nodes 3 (west of 4) and 5 (east of 4) inject simultaneously to 4.
	f.NIC(3).Send(4, noc.Request, 0, 1, 0)
	f.NIC(5).Send(4, noc.Request, 0, 1, 0)
	runUntilDrained(t, f, 200)
	if got := len(f.NIC(4).Delivered()); got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	if f.Stats().Deflections == 0 {
		t.Error("simultaneous arrivals beyond eject width must deflect")
	}
}

func TestUtilizationBounded(t *testing.T) {
	f := newFabric(4)
	r := rng.New(31)
	for cycle := 0; cycle < 2000; cycle++ {
		for n := 0; n < 16; n++ {
			if f.NIC(n).QueueLen() < 16 {
				dst := r.Intn(16)
				if dst != n {
					f.NIC(n).Send(dst, noc.Request, 0, 4, f.Cycle())
				}
			}
		}
		f.Step()
	}
	u := f.Stats().Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v out of (0,1]", u)
	}
}

func TestLivelockFreedomUnderSaturation(t *testing.T) {
	// Saturate the network for a long time; every packet injected in the
	// first phase must be delivered well before the run ends. Oldest-First
	// guarantees the oldest flit always progresses.
	f := newFabric(4)
	r := rng.New(17)
	type key struct{ seq uint64 }
	outstanding := map[key]int64{}
	for cycle := int64(0); cycle < 30000; cycle++ {
		for n := 0; n < 16; n++ {
			if f.NIC(n).QueueLen() < 4 && r.Bool(0.5) {
				dst := r.Intn(16)
				if dst != n {
					seq := f.NIC(n).Send(dst, noc.Request, 0, 1, cycle)
					outstanding[key{seq}] = cycle
				}
			}
		}
		f.Step()
		for n := 0; n < 16; n++ {
			for _, p := range f.NIC(n).Delivered() {
				delete(outstanding, key{p.Seq})
			}
		}
	}
	// Nothing injected more than 10000 cycles ago may remain undelivered.
	for k, enq := range outstanding {
		if 30000-enq > 10000 {
			t.Fatalf("packet %d stuck since cycle %d: livelock", k.seq, enq)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	f := New(Config{Topology: mesh(2)})
	if f.cfg.HopLatency != 3 || f.cfg.EjectWidth != 2 || f.cfg.InjectWidth != 1 {
		t.Errorf("defaults not applied: %+v", f.cfg)
	}
	if f.Stats().Links != 8 {
		t.Errorf("links = %d, want 8", f.Stats().Links)
	}
}

func TestNewPanicsWithoutTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without topology did not panic")
		}
	}()
	New(Config{})
}

func BenchmarkStep4x4Saturated(b *testing.B) {
	f := newFabric(4)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 16; n++ {
			if f.NIC(n).QueueLen() < 4 {
				dst := r.Intn(16)
				if dst != n {
					f.NIC(n).Send(dst, noc.Request, 0, 4, f.Cycle())
				}
			}
		}
		f.Step()
	}
}

func BenchmarkStep16x16Saturated(b *testing.B) {
	f := newFabric(16)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 256; n++ {
			if f.NIC(n).QueueLen() < 4 {
				dst := r.Intn(256)
				if dst != n {
					f.NIC(n).Send(dst, noc.Request, 0, 4, f.Cycle())
				}
			}
		}
		f.Step()
	}
}

// TestLatencyEqualsHopLatency pins the bufferless identity: a BLESS
// flit never waits inside a router, so once the fabric has drained,
// every cycle of network latency is one hop's pipeline. Oldest-First
// under seeded open-loop traffic, stopped and then drained, must give
// HopLatency x LinkTraversals == NetFlitLatencySum exactly, on a mesh
// and on a torus.
func TestLatencyEqualsHopLatency(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Mesh, topology.Torus} {
		f := New(Config{Topology: topology.NewSquare(kind, 8)})
		r := rng.New(31)
		for cycle := 0; cycle < 2000; cycle++ {
			for n := 0; n < 64; n++ {
				if r.Bool(0.15) {
					if dst := r.Intn(64); dst != n {
						f.NIC(n).Send(dst, noc.Request, 0, 1+r.Intn(3), f.Cycle())
					}
				}
			}
			f.Step()
		}
		runUntilDrained(t, f, 200000)
		s := f.Stats()
		if s.Deflections == 0 {
			t.Errorf("%v: no deflections; the traffic does not exercise contention", kind)
		}
		if got, want := s.NetFlitLatencySum, int64(f.cfg.HopLatency)*s.LinkTraversals; got != want {
			t.Errorf("%v: NetFlitLatencySum = %d, HopLatency x LinkTraversals = %d (%d flits, %d deflections)",
				kind, got, want, s.FlitsEjected, s.Deflections)
		}
	}
}

func TestWritebacksAreThrottledBless(t *testing.T) {
	f := newFabric(4, func(c *Config) { c.Policy = &blockAllPolicy{} })
	f.NIC(0).Send(5, noc.Writeback, 0, 3, 0)
	for i := 0; i < 300; i++ {
		f.Step()
	}
	if len(f.NIC(5).Delivered()) != 0 {
		t.Error("writeback bypassed the injection policy")
	}
	if f.Stats().ThrottledCycles == 0 {
		t.Error("blocked writeback cycles must count as throttled")
	}
}
