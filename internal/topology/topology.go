// Package topology models the regular on-chip network topologies used by
// the paper: the 2D mesh (the baseline throughout) and the 2D torus
// (evaluated in §6.3 as yielding the same trends with ~10% higher
// throughput). It provides node/coordinate arithmetic, per-port neighbour
// lookup, hop distances, and XY dimension-order routing.
//
// Ports are numbered so that a router's output port p connects to the
// neighbour in direction p, and arrives there on input port Opposite(p).
// Port Local is the network-interface port used for injection/ejection.
//
// Routing queries sit on the fabrics' per-flit hot path, so New
// precomputes a route table — the XY output port and the
// productive-direction bitmask packed into one byte — and RouteEntry
// and XYRoute are array loads. Both route properties are
// translation-invariant: on a mesh they depend only on the signs of the
// coordinate displacement from at to dst, on a torus only on the
// displacement modulo each dimension. The table is therefore indexed by
// displacement, costing (2W-1)(2H-1) bytes rather than N² — 4 KiB for a
// 32x32 mesh instead of the 1 MiB a per-pair table needs — so queries
// stay in the first cache levels. Every topology has the table; New
// panics on a grid whose table would exceed routeTableCap. The table is
// filled from closed-form routines (computeXYRoute,
// computeProductive), which the tests keep as the reference. Distance
// is closed-form — the coordinate arithmetic is a handful of
// subtractions off the O(N) per-node coordinate caches, too cheap to
// spend table bytes on (and a hop count does not fit the one-byte
// entry).
package topology

import "fmt"

// Port identifies one of a router's five ports.
type Port int8

// The four mesh directions plus the local network-interface port.
const (
	North Port = iota
	East
	South
	West
	Local

	// NumDirs is the number of inter-router directions (excludes Local).
	NumDirs = 4
	// NumPorts includes the local port.
	NumPorts = 5
)

// Invalid is returned for a port that does not exist (e.g. off the mesh
// edge).
const Invalid Port = -1

func (p Port) String() string {
	switch p {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	}
	return "?"
}

// Opposite returns the direction a flit leaving on p arrives on.
func Opposite(p Port) Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Invalid
}

// Kind selects the topology family.
type Kind int

const (
	// Mesh is the 2D mesh used for all headline results.
	Mesh Kind = iota
	// Torus wraps both dimensions (§6.3 note).
	Torus
)

func (k Kind) String() string {
	if k == Torus {
		return "torus"
	}
	return "mesh"
}

// routeTableCap bounds the route table at 16 MiB: every grid up to
// 2048x2048 ((2·2048-1)² bytes) and every line the coordinate cache
// admits fits, far beyond the 4096-node meshes the service accepts.
const routeTableCap = 1 << 24

// routeTableBytes is the size of a width×height topology's route table,
// one byte per displacement.
func routeTableBytes(width, height int) int { return (2*width - 1) * (2*height - 1) }

// Topology is a W×H grid of nodes, mesh or torus.
type Topology struct {
	kind   Kind
	width  int
	height int
	nodes  int
	// neighbors[node*NumDirs+dir] caches neighbour node IDs, -1 if none.
	neighbors []int32
	// pm[node] is the node's valid-port bitmask (bit d set iff the link
	// in direction d exists), so fabrics can track free output ports as
	// single-register bit operations instead of [NumDirs]bool scans.
	pm []uint8
	// cx/cy cache each node's coordinates, so Coord and Distance need
	// no div/mod.
	cx, cy []int16
	// rt is the displacement-indexed route table: the entry for a query
	// (at, dst) lives at rtIndex(at, dst), which keys on the coordinate
	// displacement (x(dst)-x(at), y(dst)-y(at)) — both route properties
	// are translation-invariant (see the package comment), so one entry
	// serves every pair with the same displacement. Both properties are
	// packed into one byte so a hot-path query — which typically needs
	// the XY port and the productive mask together — touches a single
	// byte of a table small enough to live in L1.
	rt []routeEntry
	// rtStride is the rt row length, 2*height-1.
	rtStride int
	// rtDot[n] is cx[n]*rtStride + cy[n], and rtBase the constant
	// (width-1)*rtStride + (height-1), so rtIndex collapses to one
	// subtraction of two table loads: the displacement key
	// (dx+w-1)*stride + (dy+h-1) equals rtDot[dst]-rtDot[at]+rtBase.
	rtDot  []int32
	rtBase int32
}

// routeEntry packs the precomputed route properties of one (at, dst)
// pair into a single byte: the productive-direction mask in the low
// four bits and the XY output port (0..4; Local when at == dst) in the
// next three.
type routeEntry uint8

const (
	rtProdMask  = 0x0f
	rtPortShift = 4
)

// New constructs a width×height topology of the given kind. Width and
// height must be positive.
func New(kind Kind, width, height int) *Topology {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("topology: invalid size %dx%d", width, height))
	}
	if width > 1<<15 || height > 1<<15 {
		panic(fmt.Sprintf("topology: size %dx%d overflows the int16 coordinate cache", width, height))
	}
	if b := routeTableBytes(width, height); b > routeTableCap {
		panic(fmt.Sprintf("topology: size %dx%d needs a %d-byte route table, over the %d-byte cap", width, height, b, routeTableCap))
	}
	t := &Topology{kind: kind, width: width, height: height, nodes: width * height}
	t.cx = make([]int16, t.nodes)
	t.cy = make([]int16, t.nodes)
	for n := 0; n < t.nodes; n++ {
		t.cx[n] = int16(n % width)
		t.cy[n] = int16(n / width)
	}
	t.neighbors = make([]int32, t.nodes*NumDirs)
	t.pm = make([]uint8, t.nodes)
	for n := 0; n < t.nodes; n++ {
		x, y := t.Coord(n)
		for d := Port(0); d < NumDirs; d++ {
			nb := t.computeNeighbor(x, y, d)
			t.neighbors[n*NumDirs+int(d)] = int32(nb)
			if nb >= 0 {
				t.pm[n] |= 1 << uint(d)
			}
		}
	}
	t.buildTables()
	return t
}

// rtIndex maps a (at, dst) query to its displacement-table entry.
func (t *Topology) rtIndex(at, dst int) int {
	return int(t.rtDot[dst] - t.rtDot[at] + t.rtBase)
}

// buildTables fills the displacement-indexed route table from the
// closed-form routines. Each displacement is computed on a
// representative pair whose source sits in the corner farthest along
// the displacement, so both endpoints are always in range; on a mesh
// every direction productive for the displacement exists at that
// representative (a productive direction always points inward), and on
// a torus every node has all four links, so the representative's
// answer is the answer for every pair with the displacement.
func (t *Topology) buildTables() {
	w, h := t.width, t.height
	t.rtStride = 2*h - 1
	t.rt = make([]routeEntry, (2*w-1)*t.rtStride)
	t.rtDot = make([]int32, t.nodes)
	for n := 0; n < t.nodes; n++ {
		t.rtDot[n] = int32(int(t.cx[n])*t.rtStride + int(t.cy[n]))
	}
	t.rtBase = int32((w-1)*t.rtStride + h - 1)
	for ddx := -(w - 1); ddx <= w-1; ddx++ {
		for ddy := -(h - 1); ddy <= h-1; ddy++ {
			ax, ay := max(0, -ddx), max(0, -ddy)
			at := t.Node(ax, ay)
			dst := t.Node(ax+ddx, ay+ddy)
			t.rt[t.rtIndex(at, dst)] = routeEntry(uint8(t.computeXYRoute(at, dst))<<rtPortShift | t.computeProductive(at, dst))
		}
	}
}

// NewSquare constructs a k×k topology.
func NewSquare(kind Kind, k int) *Topology { return New(kind, k, k) }

// Kind reports the topology family.
func (t *Topology) Kind() Kind { return t.kind }

// Width returns the number of columns.
func (t *Topology) Width() int { return t.width }

// Height returns the number of rows.
func (t *Topology) Height() int { return t.height }

// Nodes returns the total node count.
func (t *Topology) Nodes() int { return t.nodes }

// Links returns the number of unidirectional inter-router links.
func (t *Topology) Links() int {
	n := 0
	for node := 0; node < t.Nodes(); node++ {
		for d := Port(0); d < NumDirs; d++ {
			if t.Neighbor(node, d) >= 0 {
				n++
			}
		}
	}
	return n
}

// Node returns the node ID at (x, y).
func (t *Topology) Node(x, y int) int { return y*t.width + x }

// Coord returns the (x, y) coordinate of node n.
func (t *Topology) Coord(n int) (x, y int) { return int(t.cx[n]), int(t.cy[n]) }

func (t *Topology) computeNeighbor(x, y int, d Port) int {
	nx, ny := x, y
	switch d {
	case North:
		ny--
	case South:
		ny++
	case East:
		nx++
	case West:
		nx--
	default:
		return -1
	}
	if t.kind == Torus {
		nx = (nx + t.width) % t.width
		ny = (ny + t.height) % t.height
		// A 1-wide or 1-tall torus dimension would connect a node to
		// itself; treat that as no link, like a mesh edge.
		if nx == x && ny == y {
			return -1
		}
		return t.Node(nx, ny)
	}
	if nx < 0 || nx >= t.width || ny < 0 || ny >= t.height {
		return -1
	}
	return t.Node(nx, ny)
}

// Neighbor returns the node reached from n in direction d, or -1 if the
// port is off the edge of a mesh.
func (t *Topology) Neighbor(n int, d Port) int {
	return int(t.neighbors[n*NumDirs+int(d)])
}

// PortMask returns node n's valid inter-router ports as a bitmask (bit
// d set iff Neighbor(n, Port(d)) >= 0).
func (t *Topology) PortMask(n int) uint8 { return t.pm[n] }

// RouteEntry answers the two per-flit routing queries together: the XY
// output port and the productive-direction mask from at toward dst. It
// is one byte load off the L1-resident displacement table, small
// enough to inline into the fabrics' arbitration loops, which need both
// properties for every flit every cycle.
func (t *Topology) RouteEntry(at, dst int) (xy Port, productive uint8) {
	e := t.rt[t.rtIndex(at, dst)]
	return Port(e >> rtPortShift), uint8(e) & rtProdMask
}

// Distance returns the minimal hop count between nodes a and b. It is
// computed from the coordinate caches: a hop count does not fit the
// packed one-byte table entry, and the arithmetic is cheap enough that
// the table never beat it.
func (t *Topology) Distance(a, b int) int {
	return t.computeDistance(a, b)
}

func (t *Topology) computeDistance(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx := abs(ax - bx)
	dy := abs(ay - by)
	if t.kind == Torus {
		if w := t.width - dx; w < dx {
			dx = w
		}
		if h := t.height - dy; h < dy {
			dy = h
		}
	}
	return dx + dy
}

// XYRoute returns the productive output direction from node at toward
// dst under XY dimension-order routing: correct x first, then y. It
// returns Local when at == dst. On a torus the shorter wrap direction is
// taken.
func (t *Topology) XYRoute(at, dst int) Port {
	return Port(t.rt[t.rtIndex(at, dst)] >> rtPortShift)
}

func (t *Topology) computeXYRoute(at, dst int) Port {
	if at == dst {
		return Local
	}
	ax, ay := t.Coord(at)
	dx, dy := t.Coord(dst)
	if ax != dx {
		return t.xDir(ax, dx)
	}
	return t.yDir(ay, dy)
}

func (t *Topology) xDir(ax, dx int) Port {
	if t.kind == Torus {
		right := (dx - ax + t.width) % t.width
		if right <= t.width-right {
			return East
		}
		return West
	}
	if dx > ax {
		return East
	}
	return West
}

func (t *Topology) yDir(ay, dy int) Port {
	if t.kind == Torus {
		down := (dy - ay + t.height) % t.height
		if down <= t.height-down {
			return South
		}
		return North
	}
	if dy > ay {
		return South
	}
	return North
}

// computeProductive is RouteEntry's productive-direction mask in
// closed form: the directions whose neighbour is nearer to dst.
func (t *Topology) computeProductive(at, dst int) uint8 {
	if at == dst {
		return 0
	}
	d := t.computeDistance(at, dst)
	var m uint8
	for dir := Port(0); dir < NumDirs; dir++ {
		nb := t.Neighbor(at, dir)
		if nb >= 0 && t.computeDistance(nb, dst) < d {
			m |= 1 << uint(dir)
		}
	}
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
