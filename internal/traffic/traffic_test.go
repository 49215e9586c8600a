package traffic

import (
	"math"
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/rng"
	"nocsim/internal/topology"
)

func mesh(k int) *topology.Topology { return topology.NewSquare(topology.Mesh, k) }

func TestUniformExcludesSelfAndCovers(t *testing.T) {
	u := Uniform{Nodes: 16}
	r := rng.New(1)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		d := u.Dst(3, r)
		if d == 3 {
			t.Fatal("uniform pattern returned the source")
		}
		if d < 0 || d >= 16 {
			t.Fatalf("destination %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != 15 {
		t.Errorf("uniform covered %d destinations, want 15", len(seen))
	}
}

func TestTranspose(t *testing.T) {
	top := mesh(4)
	p := Transpose{Top: top}
	if got := p.Dst(top.Node(1, 3), nil); got != top.Node(3, 1) {
		t.Errorf("transpose(1,3) = %d, want node(3,1)", got)
	}
	// Diagonal nodes map to themselves.
	if got := p.Dst(top.Node(2, 2), nil); got != top.Node(2, 2) {
		t.Errorf("transpose diagonal moved: %d", got)
	}
}

func TestBitComplement(t *testing.T) {
	b := BitComplement{Nodes: 16}
	if b.Dst(0, nil) != 15 || b.Dst(15, nil) != 0 || b.Dst(5, nil) != 10 {
		t.Error("bit-complement mapping wrong")
	}
}

func TestHotspotFraction(t *testing.T) {
	h := Hotspot{Nodes: 16, Hot: 7, Frac: 0.3}
	r := rng.New(9)
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if h.Dst(0, r) == 7 {
			hot++
		}
	}
	got := float64(hot) / draws
	// 0.3 directly + (0.7 * 1/15) via the uniform remainder.
	want := 0.3 + 0.7/15
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hotspot fraction %.3f, want about %.3f", got, want)
	}
}

func TestNeighborWraps(t *testing.T) {
	top := mesh(4)
	n := Neighbor{Top: top}
	if got := n.Dst(top.Node(1, 2), nil); got != top.Node(2, 2) {
		t.Errorf("neighbor(1,2) = %d, want east", got)
	}
	if got := n.Dst(top.Node(3, 2), nil); got != top.Node(0, 2) {
		t.Errorf("neighbor at east edge = %d, want row wrap", got)
	}
}

func TestInjectorRate(t *testing.T) {
	top := mesh(4)
	net := bless.New(bless.Config{Topology: top})
	inj := NewInjector(16, 0.1, Uniform{Nodes: 16}, 3)
	delta := inj.Run(net, 20000)
	offered := float64(delta.FlitsInjected) / (20000 * 16)
	if math.Abs(offered-0.1) > 0.02 {
		t.Errorf("injected rate %.3f, want ~0.1", offered)
	}
}

func TestInjectorBoundsQueues(t *testing.T) {
	top := mesh(4)
	net := bless.New(bless.Config{Topology: top})
	inj := NewInjector(16, 3.0, Uniform{Nodes: 16}, 3) // far past saturation
	inj.MaxQueue = 32
	inj.Run(net, 5000)
	for i := 0; i < 16; i++ {
		if q := net.NIC(i).QueueLen(); q > 33 {
			t.Fatalf("node %d backlog %d exceeds bound", i, q)
		}
	}
}

func TestSweepShapes(t *testing.T) {
	rates := []float64{0.02, 0.1, 0.3, 0.6}
	pts := Sweep(
		func() noc.Network { return bless.New(bless.Config{Topology: mesh(4)}) },
		func(n noc.Network) Pattern { return Uniform{Nodes: n.Topology().Nodes()} },
		rates, 1, 2000, 6000, 5)
	if len(pts) != len(rates) {
		t.Fatalf("points = %d, want %d", len(pts), len(rates))
	}
	// Latency must be non-decreasing-ish with load; the last point must
	// exceed the first.
	if pts[len(pts)-1].Latency <= pts[0].Latency {
		t.Errorf("latency did not grow with load: %v", pts)
	}
	// At low load, accepted tracks offered.
	if math.Abs(pts[0].Accepted-pts[0].Offered) > 0.01 {
		t.Errorf("low-load accepted %.3f != offered %.3f", pts[0].Accepted, pts[0].Offered)
	}
}

func TestBlessSaturatesBelowBuffered(t *testing.T) {
	// The classic result: under uniform traffic the bufferless network
	// saturates earlier than the buffered one (deflections waste
	// bandwidth near saturation).
	rates := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55}
	blessPts := Sweep(
		func() noc.Network { return bless.New(bless.Config{Topology: mesh(8)}) },
		func(n noc.Network) Pattern { return Uniform{Nodes: n.Topology().Nodes()} },
		rates, 1, 2000, 6000, 7)
	bufPts := Sweep(
		func() noc.Network { return buffered.New(buffered.Config{Topology: mesh(8)}) },
		func(n noc.Network) Pattern { return Uniform{Nodes: n.Topology().Nodes()} },
		rates, 1, 2000, 6000, 7)
	bSat := Saturation(blessPts, 60)
	fSat := Saturation(bufPts, 60)
	if bSat > fSat {
		t.Errorf("bless saturation %.2f should not exceed buffered %.2f", bSat, fSat)
	}
}

func TestSaturationDetection(t *testing.T) {
	pts := []LoadPoint{{Offered: 0.1, Latency: 10}, {Offered: 0.2, Latency: 30}, {Offered: 0.3, Latency: 300}}
	if got := Saturation(pts, 100); got != 0.3 {
		t.Errorf("saturation = %v, want 0.3", got)
	}
	if got := Saturation(pts, 1000); got != 0.3 {
		t.Errorf("unsaturated sweep should return last rate, got %v", got)
	}
	if got := Saturation(nil, 10); got != 0 {
		t.Errorf("empty sweep saturation = %v, want 0", got)
	}
}

func TestPatternNames(t *testing.T) {
	top := mesh(2)
	for _, p := range []Pattern{
		Uniform{Nodes: 4}, Transpose{Top: top}, BitComplement{Nodes: 4},
		Hotspot{Nodes: 4}, Neighbor{Top: top},
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestLoadPointString(t *testing.T) {
	s := LoadPoint{Offered: 0.25, Accepted: 0.2, Latency: 12}.String()
	if s == "" {
		t.Error("empty LoadPoint string")
	}
}

// TestAcceptedUnderBisectionBound sweeps an 8x8 mesh under uniform
// traffic past its bisection bound. Half the traffic crosses the middle
// cut, whose k links per direction carry one flit a cycle each, so no
// fabric accepts more than 4/k flits/node/cycle; nor more than its
// ejection width (2 for both fabrics). The window may also eject flits
// that were stored in the fabric when it opened: at most buffered's
// 64 nodes x 4 inputs x 4 VCs x 4 flits, which sets the tolerance.
func TestAcceptedUnderBisectionBound(t *testing.T) {
	const k, eject, measure = 8, 2.0, 3000
	bound := math.Min(4.0/k, eject)
	tol := 64 * 4 * 4 * 4 / (k * k * float64(measure))
	rates := []float64{0.2, 0.4, 0.6, 0.8}
	uniform := func(n noc.Network) Pattern { return Uniform{Nodes: n.Topology().Nodes()} }
	for name, mk := range map[string]func() noc.Network{
		"bless":    func() noc.Network { return bless.New(bless.Config{Topology: mesh(k)}) },
		"buffered": func() noc.Network { return buffered.New(buffered.Config{Topology: mesh(k)}) },
	} {
		pts := Sweep(mk, uniform, rates, 1, 1000, measure, 11)
		for _, p := range pts {
			if p.Accepted > bound+tol {
				t.Errorf("%s: %v exceeds the bound %.3f (+%.4f)", name, p, bound, tol)
			}
		}
		if last := pts[len(pts)-1]; last.Accepted >= last.Offered {
			t.Errorf("%s: %v is not saturated; the sweep does not reach the bound", name, last)
		}
	}
}
