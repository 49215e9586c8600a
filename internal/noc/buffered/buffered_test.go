package buffered

import (
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/rng"
	"nocsim/internal/topology"
)

func newFabric(k int, opts ...func(*Config)) *Fabric {
	cfg := Config{Topology: topology.NewSquare(topology.Mesh, k)}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

// runUntilDrained steps until no traffic remains or maxCycles elapse,
// then checks that the drained pool holds no slot: every handle is back
// on the free list, once (stepbench's pool-conservation check at zero
// flits in flight).
func runUntilDrained(t *testing.T, f *Fabric, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if f.Drained() {
			live := 0
			f.Pool.Live(func(*noc.Flit) { live++ })
			if held := f.Pool.Cap() - f.Pool.FreeSlots(); held != 0 || live != 0 {
				t.Fatalf("drained pool holds %d slots (%d live)", held, live)
			}
			return
		}
		f.Step()
	}
	t.Fatalf("network not drained after %d cycles (inflight=%d)", maxCycles, f.InFlight())
}

func TestSingleFlitDelivery(t *testing.T) {
	f := newFabric(4)
	f.NIC(0).Send(15, noc.Request, 7, 1, 0)
	runUntilDrained(t, f, 400)
	d := f.NIC(15).Delivered()
	if len(d) != 1 || d[0].Token != 7 {
		t.Fatalf("delivered %v", d)
	}
}

func TestMultiFlitWormhole(t *testing.T) {
	f := newFabric(4)
	f.NIC(1).Send(14, noc.Reply, 3, 6, 0)
	runUntilDrained(t, f, 1000)
	d := f.NIC(14).Delivered()
	if len(d) != 1 || d[0].Len != 6 {
		t.Fatalf("want one 6-flit packet, got %v", d)
	}
}

func TestSelfAddressedPacket(t *testing.T) {
	f := newFabric(4)
	f.NIC(5).Send(5, noc.Request, 9, 2, 0)
	runUntilDrained(t, f, 100)
	d := f.NIC(5).Delivered()
	if len(d) != 1 || d[0].Token != 9 {
		t.Fatalf("self-addressed packet not delivered: %v", d)
	}
}

// Property: conservation under sustained random traffic, including
// packets longer than the VC buffer depth (wormhole streaming).
func TestFlitConservation(t *testing.T) {
	f := newFabric(4)
	r := rng.New(42)
	sentPkts, sentFlits := 0, 0
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle < 2000 {
			for n := 0; n < 16; n++ {
				if r.Bool(0.1) {
					dst := r.Intn(16)
					if dst == n {
						continue
					}
					ln := 1 + r.Intn(8) // up to 2x buffer depth
					f.NIC(n).Send(dst, noc.Request, 0, ln, f.Cycle())
					sentPkts++
					sentFlits += ln
				}
			}
		}
		f.Step()
	}
	runUntilDrained(t, f, 400000)
	s := f.Stats()
	if s.FlitsInjected != int64(sentFlits) || s.FlitsEjected != int64(sentFlits) {
		t.Errorf("flits inj=%d ej=%d, want %d", s.FlitsInjected, s.FlitsEjected, sentFlits)
	}
	got := 0
	for n := 0; n < 16; n++ {
		got += len(f.NIC(n).Delivered())
	}
	if got != sentPkts {
		t.Errorf("delivered %d packets, want %d", got, sentPkts)
	}
}

// Per-VC FIFO and wormhole discipline imply flits of one packet arrive
// in order; NIC.Receive would still assemble out-of-order arrivals, so
// check order explicitly via a counting shim: in-order arrival means the
// completed packet count matches and no pending packets linger.
func TestNoStrandedPartialPackets(t *testing.T) {
	f := newFabric(4)
	r := rng.New(9)
	for cycle := 0; cycle < 3000; cycle++ {
		if cycle < 1500 {
			n := r.Intn(16)
			dst := r.Intn(16)
			if dst != n {
				f.NIC(n).Send(dst, noc.Request, 0, 4, f.Cycle())
			}
		}
		f.Step()
	}
	runUntilDrained(t, f, 400000)
	for n := 0; n < 16; n++ {
		if p := f.NIC(n).PendingPackets(); p != 0 {
			t.Errorf("node %d has %d stranded partial packets", n, p)
		}
	}
}

func TestBufferEventsCounted(t *testing.T) {
	f := newFabric(4)
	f.NIC(0).Send(3, noc.Request, 0, 2, 0) // 3 hops east
	runUntilDrained(t, f, 400)
	s := f.Stats()
	if s.BufferWrites == 0 || s.BufferReads == 0 {
		t.Error("buffered router must count buffer events")
	}
	if s.BufferWrites != s.BufferReads {
		t.Errorf("buffer writes %d != reads %d after drain", s.BufferWrites, s.BufferReads)
	}
}

func TestBackpressureBlocksInjection(t *testing.T) {
	// Flood one destination from all nodes: credits must run out and
	// injections stall (starvation observed), but nothing is lost.
	f := newFabric(4)
	sent := 0
	for cycle := 0; cycle < 400; cycle++ {
		for n := 0; n < 16; n++ {
			if n != 5 && f.NIC(n).QueueLen() < 32 {
				f.NIC(n).Send(5, noc.Request, 0, 4, f.Cycle())
				sent += 4
			}
		}
		f.Step()
	}
	s := f.Stats()
	if s.StarvedCycles == 0 {
		t.Error("hotspot flood should stall injections via credit backpressure")
	}
	runUntilDrained(t, f, 400000)
	if got := f.Stats().FlitsEjected; got != int64(sent) {
		t.Errorf("ejected %d, want %d", got, sent)
	}
}

type denyPolicy struct{}

func (denyPolicy) Allow(int) bool             { return false }
func (denyPolicy) Tick(int, bool, bool, bool) {}
func (denyPolicy) MarkCongested(int) bool     { return false }

func TestPolicyBlocksRequestsNotReplies(t *testing.T) {
	f := newFabric(4, func(c *Config) { c.Policy = denyPolicy{} })
	f.NIC(0).Send(5, noc.Request, 0, 1, 0)
	f.NIC(1).Send(6, noc.Reply, 0, 1, 0)
	for i := 0; i < 200; i++ {
		f.Step()
	}
	if len(f.NIC(5).Delivered()) != 0 {
		t.Error("request should be blocked by policy")
	}
	if len(f.NIC(6).Delivered()) != 1 {
		t.Error("reply must bypass policy")
	}
}

func TestReplyBypassesStalledRequestStream(t *testing.T) {
	// Saturate requests from node 0, then enqueue a reply: it must be
	// delivered promptly via the reply pseudo-VC even while request
	// packets are mid-flight.
	f := newFabric(4)
	for i := 0; i < 50; i++ {
		f.NIC(0).Send(15, noc.Request, 0, 4, 0)
	}
	for i := 0; i < 30; i++ {
		f.Step()
	}
	f.NIC(0).Send(1, noc.Reply, 77, 1, f.Cycle())
	start := f.Cycle()
	for i := 0; i < 2000; i++ {
		f.Step()
		for _, p := range f.NIC(1).Delivered() {
			if p.Token == 77 {
				if f.Cycle()-start > 200 {
					t.Errorf("reply took %d cycles behind request backlog", f.Cycle()-start)
				}
				return
			}
		}
	}
	t.Fatal("reply never delivered")
}

func TestInterleavedPacketsDoNotCorrupt(t *testing.T) {
	// Two sources stream long packets through a shared column; packets
	// must reassemble exactly.
	f := newFabric(4)
	for i := 0; i < 20; i++ {
		f.NIC(0).Send(12, noc.Request, uint64(i), 6, f.Cycle())
		f.NIC(4).Send(12, noc.Request, uint64(100+i), 6, f.Cycle())
		f.Step()
	}
	runUntilDrained(t, f, 200000)
	d := f.NIC(12).Delivered()
	if len(d) != 40 {
		t.Fatalf("delivered %d packets, want 40", len(d))
	}
	for _, p := range d {
		if p.Len != 6 {
			t.Errorf("packet %d has len %d, want 6", p.Token, p.Len)
		}
	}
}

func TestLowerLatencyThanBlessUnderHotspot(t *testing.T) {
	// Sanity: with buffers, hotspot traffic should not be deflected, so
	// deflection count is zero by construction and packets still arrive.
	f := newFabric(4)
	for n := 0; n < 16; n++ {
		if n != 5 {
			f.NIC(n).Send(5, noc.Request, 0, 1, 0)
		}
	}
	runUntilDrained(t, f, 4000)
	if got := len(f.NIC(5).Delivered()); got != 15 {
		t.Errorf("delivered %d, want 15", got)
	}
	if f.Stats().Deflections != 0 {
		t.Error("buffered router must never deflect")
	}
}

func TestPanicsOnTorus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("torus config did not panic")
		}
	}()
	New(Config{Topology: topology.NewSquare(topology.Torus, 4)})
}

func TestPanicsOnTooManyVCs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("9-VC config did not panic")
		}
	}()
	New(Config{Topology: topology.NewSquare(topology.Mesh, 2), VCs: 9})
}

func TestDefaults(t *testing.T) {
	f := newFabric(2)
	if f.cfg.VCs != 4 || f.cfg.BufDepth != 4 || f.cfg.HopLatency != 3 {
		t.Errorf("defaults not applied: %+v", f.cfg)
	}
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

func TestEjectWidthTwoDrainsFaster(t *testing.T) {
	// Two flits from opposite sides arriving for one node: with eject
	// width 2 both leave the network promptly; with width 1 the second
	// waits a cycle in its buffer (never deflected, just delayed).
	run := func(width int) int64 {
		f := newFabric(3, func(c *Config) { c.EjectWidth = width })
		f.NIC(3).Send(4, noc.Request, 1, 1, 0)
		f.NIC(5).Send(4, noc.Request, 2, 1, 0)
		runUntilDrained(t, f, 200)
		var last int64
		for _, p := range f.NIC(4).Delivered() {
			if p.Eject > last {
				last = p.Eject
			}
		}
		return last
	}
	wide := run(2)
	narrow := run(1)
	if wide > narrow {
		t.Errorf("eject width 2 delivered at %d, later than width 1 at %d", wide, narrow)
	}
}

func TestWritebacksAreThrottled(t *testing.T) {
	f := newFabric(4, func(c *Config) { c.Policy = denyPolicy{} })
	f.NIC(0).Send(5, noc.Writeback, 0, 3, 0)
	for i := 0; i < 300; i++ {
		f.Step()
	}
	if len(f.NIC(5).Delivered()) != 0 {
		t.Error("writeback bypassed the injection policy")
	}
}
