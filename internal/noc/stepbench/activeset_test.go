package stepbench

import (
	"bytes"
	"slices"
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

const asNodes = 256

// recorder is an IdleTicker injection policy that throttles every
// other Allow and counts, per node, the cycles it has observed (Tick
// calls plus TickIdle stretches) and the injections it was told of.
// Its decisions depend on the global order of Allow calls, so any call
// the active set adds, drops or reorders shows up in the counters.
type recorder struct {
	allows   int
	ticks    []int64
	injected []int64
}

func newRecorder() *recorder {
	return &recorder{ticks: make([]int64, asNodes), injected: make([]int64, asNodes)}
}

func (p *recorder) Allow(int) bool {
	p.allows++
	return p.allows%2 == 0
}

func (p *recorder) Tick(node int, _, injected, _ bool) {
	p.ticks[node]++
	if injected {
		p.injected[node]++
	}
}

func (p *recorder) TickIdle(node int, cycles int64) { p.ticks[node] += cycles }

func (p *recorder) MarkCongested(node int) bool { return node%5 == 0 }

// activeRun drives a few packets across an otherwise idle 256-node
// fabric and returns the final counters plus every obs export. The
// workload is the worst case for active-set correctness: almost every
// unit is idle almost every cycle, so any unit the skip logic wrongly
// leaves asleep shows up as a stuck or late packet, and any event it
// fails to record shows up in the byte comparison.
func activeRun(t *testing.T, net noc.Network, pr obs.Probe, units int, wantSkip bool) (noc.Stats, string) {
	t.Helper()
	if _, enabled := net.ActiveSet(); enabled != wantSkip {
		t.Fatalf("ActiveSet enabled = %v, want %v", enabled, wantSkip)
	}
	const (
		idle   = 10  // cycles before injection: everything asleep
		flight = 700 // cycles after: cross the fabric and drain
	)
	for i := 0; i < idle; i++ {
		net.Step()
	}
	if wantSkip {
		if active, _ := net.ActiveSet(); active != 0 {
			t.Errorf("idle fabric has %d active units, want 0", active)
		}
	}
	sends := []struct {
		at       int
		src, dst int
		kind     noc.Kind
	}{
		{0, 0, asNodes - 1, noc.Request},
		{3, 17, 3, noc.Request},
		{40, 200, 40, noc.Reply},
		{41, 200, 41, noc.Writeback},
	}
	var delivered int
	for i := 0; i < flight; i++ {
		for _, s := range sends {
			if s.at == i {
				net.NIC(s.src).Send(s.dst, s.kind, 7, 4, net.Cycle())
			}
		}
		net.Step()
		if wantSkip && i == 5 {
			// Mid-flight only the packets' neighbourhoods are awake.
			if active, _ := net.ActiveSet(); active == 0 || active > units/4 {
				t.Errorf("mid-flight active set = %d of %d, want small but nonzero", active, units)
			}
		}
		for n := 0; n < asNodes; n++ {
			delivered += len(net.NIC(n).Delivered())
		}
	}
	if delivered != len(sends) {
		t.Fatalf("delivered %d packets, want %d", delivered, len(sends))
	}
	if wantSkip {
		if active, _ := net.ActiveSet(); active != 0 {
			t.Errorf("drained fabric has %d active units, want 0", active)
		}
	}
	net.SyncPolicy()
	var exports bytes.Buffer
	if err := pr.Tracer.WriteChromeTrace(&exports); err != nil {
		t.Fatal(err)
	}
	if err := pr.Spatial.WriteNodeCSV(&exports); err != nil {
		t.Fatal(err)
	}
	if err := pr.Spatial.WriteLinkCSV(&exports); err != nil {
		t.Fatal(err)
	}
	return net.Stats(), exports.String()
}

func newProbe() obs.Probe {
	return obs.Probe{
		Tracer: obs.NewTracer(asNodes, 64*asNodes, 1), // sample every packet
		Spatial: obs.NewSpatial(obs.Meta{
			Nodes: asNodes, Width: 16, Height: 16, ActiveNodes: asNodes,
		}),
	}
}

// newFabric builds a 256-node fabric with the active set enabled or
// force-disabled.
type newFabric func(noActive bool, pol noc.InjectionPolicy, pr obs.Probe) noc.Network

// TestActiveSetExact pins the active set's central claim on the mesh
// fabrics: skipping idle routers is exact.
func TestActiveSetExact(t *testing.T) {
	mesh := topology.NewSquare(topology.Mesh, 16)
	checkActiveSetExact(t, "bless", asNodes, func(noActive bool, pol noc.InjectionPolicy, pr obs.Probe) noc.Network {
		return bless.New(bless.Config{Topology: mesh, Policy: pol, NoActiveSet: noActive, Probe: pr})
	})
	checkActiveSetExact(t, "buffered", asNodes, func(noActive bool, pol noc.InjectionPolicy, pr obs.Probe) noc.Network {
		return buffered.New(buffered.Config{Topology: mesh, Policy: pol, NoActiveSet: noActive, Probe: pr})
	})
}

// TestHierringActiveSetExact pins the hierarchical fabric's three-state
// active-set protocol: the packets cross source ring, global ring and
// destination ring, each of which wakes and drains back to idle, and
// skipping idle rings must be exact.
func TestHierringActiveSetExact(t *testing.T) {
	checkActiveSetExact(t, "noskip_seq", asNodes/8, func(noActive bool, pol noc.InjectionPolicy, pr obs.Probe) noc.Network {
		return hierring.New(hierring.Config{Nodes: asNodes, GroupSize: 8, Policy: pol, NoActiveSet: noActive, Probe: pr})
	})
}

// checkActiveSetExact runs the subtests name (Open policy) and
// name-throttle (a recording IdleTicker policy that throttles). Each
// runs the same workload with the active set enabled and force-disabled;
// the counters, Chrome trace and spatial CSVs must be byte-identical,
// and after SyncPolicy the policy must have observed every node for
// every cycle with the same per-node injection outcomes.
func checkActiveSetExact(t *testing.T, name string, units int, newNet newFabric) {
	for _, throttle := range []bool{false, true} {
		sub := name
		if throttle {
			sub += "-throttle"
		}
		t.Run(sub, func(t *testing.T) {
			var polOn, polOff *recorder
			var on, off noc.InjectionPolicy = noc.Open{}, noc.Open{}
			if throttle {
				polOn, polOff = newRecorder(), newRecorder()
				on, off = polOn, polOff
			}
			prOn, prOff := newProbe(), newProbe()
			statsOn, exportsOn := activeRun(t, newNet(false, on, prOn), prOn, units, true)
			statsOff, exportsOff := activeRun(t, newNet(true, off, prOff), prOff, units, false)
			if statsOn != statsOff {
				t.Errorf("counters diverge:\n  on:  %+v\n  off: %+v", statsOn, statsOff)
			}
			if exportsOn != exportsOff {
				t.Errorf("obs exports diverge with active set enabled (%d vs %d bytes)",
					len(exportsOn), len(exportsOff))
			}
			if !throttle {
				return
			}
			if statsOn.ThrottledCycles == 0 {
				t.Error("recording policy never throttled")
			}
			for n, ticks := range polOn.ticks {
				if ticks != statsOn.Cycles {
					t.Fatalf("node %d: policy observed %d cycles, want %d", n, ticks, statsOn.Cycles)
				}
			}
			if !slices.Equal(polOn.ticks, polOff.ticks) || !slices.Equal(polOn.injected, polOff.injected) ||
				polOn.allows != polOff.allows {
				t.Error("policy observations diverge with active set enabled")
			}
		})
	}
}

// TestActiveSetDisabledByAdaptive pins the gate: adaptive routing
// observes port history at every router every cycle, so skipping
// would change routing decisions and must not engage.
func TestActiveSetDisabledByAdaptive(t *testing.T) {
	f := bless.New(bless.Config{
		Topology: topology.NewSquare(topology.Mesh, 8),
		Adaptive: true,
	})
	if _, enabled := f.ActiveSet(); enabled {
		t.Error("active set must not engage with adaptive routing")
	}
}
