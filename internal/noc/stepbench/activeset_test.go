package stepbench

import (
	"bytes"
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

// activeSetter is implemented by fabrics that can skip idle routers.
type activeSetter interface {
	ActiveSet() (active int, enabled bool)
}

// activeRun drives one packet corner-to-corner across an otherwise
// idle 16x16 mesh and returns the final counters plus every obs
// export. The workload is the worst case for active-set correctness:
// almost every router is idle almost every cycle, so any node the
// skip logic wrongly leaves asleep shows up as a stuck or late packet,
// and any event it fails to record shows up in the byte comparison.
func activeRun(t *testing.T, net noc.Network, pr obs.Probe, wantSkip bool) (noc.Stats, string, string, string) {
	t.Helper()
	as, isAS := net.(activeSetter)
	if !isAS {
		t.Fatal("fabric does not expose ActiveSet")
	}
	if _, enabled := as.ActiveSet(); enabled != wantSkip {
		t.Fatalf("ActiveSet enabled = %v, want %v", enabled, wantSkip)
	}
	const (
		nodes  = 256
		idle   = 10  // cycles before injection: everything asleep
		flight = 400 // cycles after: cross the mesh and drain
	)
	for i := 0; i < idle; i++ {
		net.Step()
	}
	if wantSkip {
		if active, _ := as.ActiveSet(); active != 0 {
			t.Errorf("idle network has %d active nodes, want 0", active)
		}
	}
	net.NIC(0).Send(nodes-1, noc.Request, 7, 4, idle)
	var delivered int
	for i := 0; i < flight; i++ {
		net.Step()
		if wantSkip && i == 5 {
			// Mid-flight only the packet's neighbourhood is awake.
			if active, _ := as.ActiveSet(); active == 0 || active > nodes/4 {
				t.Errorf("mid-flight active set = %d, want small but nonzero", active)
			}
		}
		delivered += len(net.NIC(nodes - 1).Delivered())
	}
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
	if wantSkip {
		if active, _ := as.ActiveSet(); active != 0 {
			t.Errorf("drained network has %d active nodes, want 0", active)
		}
	}
	var trace, nodeCSV, linkCSV bytes.Buffer
	if err := pr.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := pr.Spatial.WriteNodeCSV(&nodeCSV); err != nil {
		t.Fatal(err)
	}
	if err := pr.Spatial.WriteLinkCSV(&linkCSV); err != nil {
		t.Fatal(err)
	}
	return net.Stats(), trace.String(), nodeCSV.String(), linkCSV.String()
}

func newProbe() obs.Probe {
	return obs.Probe{
		Tracer: obs.NewTracer(256, 64*256, 1), // sample every packet
		Spatial: obs.NewSpatial(obs.Meta{
			Nodes: 256, Width: 16, Height: 16, ActiveNodes: 256,
		}),
	}
}

// TestActiveSetExact pins the tentpole's central claim: skipping idle
// routers is exact. For each mesh fabric, the same single-packet
// workload runs with the active set enabled and force-disabled, and
// the counters, Chrome trace, and spatial CSVs must be byte-identical.
func TestActiveSetExact(t *testing.T) {
	fabrics := []struct {
		name string
		new  func(noActive bool, pr obs.Probe) noc.Network
	}{
		{"bless", func(noActive bool, pr obs.Probe) noc.Network {
			return bless.New(bless.Config{
				Topology:    topology.NewSquare(topology.Mesh, 16),
				NoActiveSet: noActive,
				Probe:       pr,
			})
		}},
		{"buffered", func(noActive bool, pr obs.Probe) noc.Network {
			return buffered.New(buffered.Config{
				Topology:    topology.NewSquare(topology.Mesh, 16),
				NoActiveSet: noActive,
				Probe:       pr,
			})
		}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			prOn := newProbe()
			statsOn, traceOn, nodesOn, linksOn := activeRun(t, f.new(false, prOn), prOn, true)
			prOff := newProbe()
			statsOff, traceOff, nodesOff, linksOff := activeRun(t, f.new(true, prOff), prOff, false)
			if statsOn != statsOff {
				t.Errorf("counters diverge:\n  on:  %+v\n  off: %+v", statsOn, statsOff)
			}
			for _, d := range []struct{ what, on, off string }{
				{"chrome trace", traceOn, traceOff},
				{"node CSV", nodesOn, nodesOff},
				{"link CSV", linksOn, linksOff},
			} {
				if d.on != d.off {
					t.Errorf("%s diverges with active set enabled (%d vs %d bytes)",
						d.what, len(d.on), len(d.off))
					if testing.Verbose() {
						t.Logf("on:\n%s\noff:\n%s", clip(d.on), clip(d.off))
					}
				}
			}
		})
	}
}

// hierringActiveRun drives one packet end-to-end across an otherwise
// idle ring hierarchy and returns the final counters. The route crosses
// all three active-set states of the protocol: the source local ring
// wakes on injection, the global ring wakes when the bridge accepts the
// flit, and the destination ring wakes on global delivery — then each
// drains back to idle.
func hierringActiveRun(t *testing.T, nodes int, noActive bool) noc.Stats {
	t.Helper()
	net := hierring.New(hierring.Config{
		Nodes:       nodes,
		GroupSize:   8,
		NoActiveSet: noActive,
	})
	wantSkip := !noActive
	if _, enabled := net.ActiveSet(); enabled != wantSkip {
		t.Fatalf("ActiveSet enabled = %v, want %v", enabled, wantSkip)
	}
	const (
		idle   = 10
		flight = 600 // two local rings plus the global ring, with FIFO stalls
	)
	for i := 0; i < idle; i++ {
		net.Step()
	}
	if wantSkip {
		if active, _ := net.ActiveSet(); active != 0 {
			t.Errorf("idle hierarchy has %d active rings, want 0", active)
		}
	}
	net.NIC(0).Send(nodes-1, noc.Request, 7, 4, idle)
	groups := nodes / 8
	var delivered int
	for i := 0; i < flight; i++ {
		net.Step()
		if wantSkip && i == 5 {
			// Mid-flight only the rings the packet touches are awake.
			if active, _ := net.ActiveSet(); active == 0 || active >= groups {
				t.Errorf("mid-flight active rings = %d, want in [1, %d)", active, groups)
			}
		}
		delivered += len(net.NIC(nodes - 1).Delivered())
	}
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
	if wantSkip {
		if active, _ := net.ActiveSet(); active != 0 {
			t.Errorf("drained hierarchy has %d active rings, want 0", active)
		}
	}
	return net.Stats()
}

// TestHierringActiveSetExact pins the hierarchical fabric's three-state
// active-set protocol: a single packet crossing source ring, global
// ring, and destination ring must produce byte-identical counters with
// ring skipping enabled and force-disabled.
func TestHierringActiveSetExact(t *testing.T) {
	const nodes = 64
	base := hierringActiveRun(t, nodes, false)
	t.Run("noskip_seq", func(t *testing.T) {
		got := hierringActiveRun(t, nodes, true)
		if got != base {
			t.Errorf("counters diverge from skip_seq baseline:\n  base: %+v\n  got:  %+v", base, got)
		}
	})
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
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
