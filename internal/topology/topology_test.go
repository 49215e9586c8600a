package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"nocsim/internal/rng"
)

func TestCoordRoundTrip(t *testing.T) {
	top := New(Mesh, 7, 5)
	for n := 0; n < top.Nodes(); n++ {
		x, y := top.Coord(n)
		if top.Node(x, y) != n {
			t.Fatalf("Coord/Node round trip failed for %d", n)
		}
		if x < 0 || x >= 7 || y < 0 || y >= 5 {
			t.Fatalf("coordinate out of range for %d: (%d,%d)", n, x, y)
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	top := NewSquare(Mesh, 4)
	// Corner 0 has only East and South.
	if top.Neighbor(0, North) != -1 || top.Neighbor(0, West) != -1 {
		t.Error("corner node 0 should have no north/west neighbour")
	}
	if top.Neighbor(0, East) != 1 {
		t.Errorf("node 0 east = %d, want 1", top.Neighbor(0, East))
	}
	if top.Neighbor(0, South) != 4 {
		t.Errorf("node 0 south = %d, want 4", top.Neighbor(0, South))
	}
	// Interior node 5 = (1,1) has all four.
	for d := Port(0); d < NumDirs; d++ {
		if top.Neighbor(5, d) < 0 {
			t.Errorf("interior node 5 missing %v neighbour", d)
		}
	}
}

func TestTorusWrap(t *testing.T) {
	top := NewSquare(Torus, 4)
	if got := top.Neighbor(0, North); got != 12 {
		t.Errorf("torus node 0 north = %d, want 12", got)
	}
	if got := top.Neighbor(0, West); got != 3 {
		t.Errorf("torus node 0 west = %d, want 3", got)
	}
	for n := 0; n < top.Nodes(); n++ {
		for d := Port(0); d < NumDirs; d++ {
			if top.Neighbor(n, d) < 0 {
				t.Fatalf("torus node %d missing %v neighbour", n, d)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, kind := range []Kind{Mesh, Torus} {
		top := New(kind, 6, 3)
		for n := 0; n < top.Nodes(); n++ {
			for d := Port(0); d < NumDirs; d++ {
				nb := top.Neighbor(n, d)
				if nb < 0 {
					continue
				}
				if back := top.Neighbor(nb, Opposite(d)); back != n {
					t.Fatalf("%v: neighbour symmetry broken at %d dir %v: %d -> back %d",
						kind, n, d, nb, back)
				}
			}
		}
	}
}

func TestOpposite(t *testing.T) {
	for d := Port(0); d < NumDirs; d++ {
		if Opposite(Opposite(d)) != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
	}
	if Opposite(Local) != Invalid {
		t.Error("Opposite(Local) should be Invalid")
	}
}

func TestLinksCount(t *testing.T) {
	// 4x4 mesh: 2*4*3*2 = 48 unidirectional links.
	if got := NewSquare(Mesh, 4).Links(); got != 48 {
		t.Errorf("4x4 mesh links = %d, want 48", got)
	}
	// 4x4 torus: every node has 4 out-links.
	if got := NewSquare(Torus, 4).Links(); got != 64 {
		t.Errorf("4x4 torus links = %d, want 64", got)
	}
}

func TestDistanceMesh(t *testing.T) {
	top := NewSquare(Mesh, 8)
	if d := top.Distance(0, top.Node(7, 7)); d != 14 {
		t.Errorf("corner-to-corner distance = %d, want 14", d)
	}
	if d := top.Distance(3, 3); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestDistanceTorusWraps(t *testing.T) {
	top := NewSquare(Torus, 8)
	if d := top.Distance(0, top.Node(7, 0)); d != 1 {
		t.Errorf("torus wrap distance = %d, want 1", d)
	}
	if d := top.Distance(0, top.Node(7, 7)); d != 2 {
		t.Errorf("torus corner distance = %d, want 2", d)
	}
}

// Property: XY routing from any node always reaches the destination in
// exactly Distance(src,dst) steps on a mesh.
func TestXYRouteReachesDestination(t *testing.T) {
	top := NewSquare(Mesh, 8)
	src := rng.New(99)
	f := func(a, b uint16) bool {
		s := int(a) % top.Nodes()
		d := int(b) % top.Nodes()
		at := s
		steps := 0
		for at != d {
			dir := top.XYRoute(at, d)
			if dir == Local {
				return false
			}
			next := top.Neighbor(at, dir)
			if next < 0 {
				return false
			}
			at = next
			steps++
			if steps > top.Nodes() {
				return false
			}
		}
		return steps == top.Distance(s, d)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: nil}
	_ = src
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestXYRouteXFirst(t *testing.T) {
	top := NewSquare(Mesh, 4)
	// From (0,0) to (2,3): must go East until x corrected.
	at := top.Node(0, 0)
	dst := top.Node(2, 3)
	if dir := top.XYRoute(at, dst); dir != East {
		t.Errorf("XY route first hop = %v, want E", dir)
	}
	// From (2,0) to (2,3): x equal, go South.
	if dir := top.XYRoute(top.Node(2, 0), dst); dir != South {
		t.Errorf("XY route y-phase hop = %v, want S", dir)
	}
	if dir := top.XYRoute(dst, dst); dir != Local {
		t.Errorf("XY route at destination = %v, want Local", dir)
	}
}

func TestXYRouteTorusTakesShortWrap(t *testing.T) {
	top := NewSquare(Torus, 8)
	// (0,0) -> (7,0): wrapping West is 1 hop vs 7 going East.
	if dir := top.XYRoute(top.Node(0, 0), top.Node(7, 0)); dir != West {
		t.Errorf("torus route = %v, want W", dir)
	}
	// Destination also reached in Distance steps.
	at, dst := top.Node(1, 1), top.Node(6, 7)
	steps := 0
	for at != dst {
		at = top.Neighbor(at, top.XYRoute(at, dst))
		steps++
	}
	if steps != top.Distance(top.Node(1, 1), dst) {
		t.Errorf("torus XY path length %d, want %d", steps, top.Distance(top.Node(1, 1), dst))
	}
}

// Property: every direction in RouteEntry's productive mask strictly
// reduces distance, and XYRoute's choice is always among them.
func TestProductiveDirs(t *testing.T) {
	for _, kind := range []Kind{Mesh, Torus} {
		top := New(kind, 6, 6)
		r := rng.New(5)
		for trial := 0; trial < 2000; trial++ {
			a := r.Intn(top.Nodes())
			b := r.Intn(top.Nodes())
			if a == b {
				continue
			}
			_, m := top.RouteEntry(a, b)
			if m == 0 {
				t.Fatalf("%v: no productive dirs from %d to %d", kind, a, b)
			}
			for d := Port(0); d < NumDirs; d++ {
				if m&(1<<uint(d)) == 0 {
					continue
				}
				nb := top.Neighbor(a, d)
				if top.Distance(nb, b) != top.Distance(a, b)-1 {
					t.Fatalf("%v: dir %v from %d to %d not productive", kind, d, a, b)
				}
			}
			if xy := top.XYRoute(a, b); m&(1<<uint(xy)) == 0 {
				t.Fatalf("%v: XY choice %v not in productive set %04b (from %d to %d)",
					kind, xy, m, a, b)
			}
		}
	}
}

func TestPortString(t *testing.T) {
	want := map[Port]string{North: "N", East: "E", South: "S", West: "W", Local: "L", Invalid: "?"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Port(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,5) did not panic")
		}
	}()
	New(Mesh, 0, 5)
}

// TestRouteTablesMatchComputation cross-checks every route-table
// query against the closed-form routines for every (at, dst) pair, on
// grids and on the 1-D lines the ring fabric builds.
func TestRouteTablesMatchComputation(t *testing.T) {
	for _, kind := range []Kind{Mesh, Torus} {
		for _, dims := range [][2]int{{4, 4}, {5, 3}, {8, 8}, {16, 1}, {1, 7}} {
			top := New(kind, dims[0], dims[1])
			n := top.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					xy, prod := top.RouteEntry(a, b)
					if want := top.computeXYRoute(a, b); xy != want || top.XYRoute(a, b) != want {
						t.Fatalf("%v %dx%d XYRoute(%d,%d) = %v, computed %v", kind, dims[0], dims[1], a, b, xy, want)
					}
					if want := top.computeProductive(a, b); prod != want {
						t.Fatalf("%v %dx%d productive(%d,%d) = %04b, computed %04b", kind, dims[0], dims[1], a, b, prod, want)
					}
				}
			}
		}
	}
}

// TestTableGating pins the route table's size cap: every grid up to
// 2048x2048 and every line fits, a larger grid panics in New before it
// allocates, and the paper's sizes cost a few KiB.
func TestTableGating(t *testing.T) {
	if got := len(New(Mesh, 32, 32).rt); got != 63*63 {
		t.Errorf("32x32 route table = %d bytes, want %d", got, 63*63)
	}
	if b := routeTableBytes(2048, 2048); b > routeTableCap {
		t.Errorf("2048x2048 route table (%d bytes) exceeds the cap", b)
	}
	line := New(Mesh, 1<<15, 1)
	if got := len(line.rt); got != 2*(1<<15)-1 {
		t.Errorf("widest line route table = %d bytes, want %d", got, 2*(1<<15)-1)
	}
	if d, p := line.Distance(0, 255), line.XYRoute(0, 7); d != 255 || p != East {
		t.Errorf("line Distance = %d, XYRoute = %v; want 255, East", d, p)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "topology: ") {
			t.Fatalf("New(2049x2049) panicked with %q, want a topology: size-cap panic", msg)
		}
	}()
	New(Mesh, 2049, 2049)
}

// TestProductiveMaskMatchesDirs checks RouteEntry's productive mask
// against its definition, the set of directions whose neighbour is
// nearer to dst, on grids and a line.
func TestProductiveMaskMatchesDirs(t *testing.T) {
	for _, top := range []*Topology{New(Mesh, 6, 6), New(Torus, 6, 6), New(Mesh, 300, 1)} {
		n := top.Nodes()
		for a := 0; a < n; a += 7 {
			for b := 0; b < n; b += 5 {
				var dirs uint8
				for d := Port(0); d < NumDirs; d++ {
					if nb := top.Neighbor(a, d); nb >= 0 && top.Distance(nb, b) < top.Distance(a, b) {
						dirs |= 1 << uint(d)
					}
				}
				if _, m := top.RouteEntry(a, b); m != dirs {
					t.Fatalf("productive(%d,%d) = %b, dirs give %b", a, b, m, dirs)
				}
			}
		}
	}
}
