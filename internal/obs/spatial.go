package obs

import (
	"io"
	"strconv"
)

// MaxPorts is the per-node output-port count of the link grid (the
// mesh/torus direction fan-out; ring fabrics have no 2D port geometry
// and leave the link grid zero).
const MaxPorts = 4

// Spatial accumulates where traffic flows and where it hurts: per-link
// traversal counts and per-node event grids, the raw material of the
// hotspot heatmaps. Each counter row belongs to one node.
type Spatial struct {
	meta Meta

	// link[node*MaxPorts+dir] counts traversals of the output link
	// from node toward direction dir.
	link []int64
	// Per-node event counts.
	injected  []int64
	ejected   []int64
	deflected []int64
	starved   []int64
	throttled []int64
}

// NewSpatial returns zeroed grids for the given system shape.
func NewSpatial(m Meta) *Spatial {
	return &Spatial{
		meta:      m,
		link:      make([]int64, m.Nodes*MaxPorts),
		injected:  make([]int64, m.Nodes),
		ejected:   make([]int64, m.Nodes),
		deflected: make([]int64, m.Nodes),
		starved:   make([]int64, m.Nodes),
		throttled: make([]int64, m.Nodes),
	}
}

// AddLink counts one traversal of node's output link toward dir.
func (s *Spatial) AddLink(node, dir int) { s.link[node*MaxPorts+dir]++ }

// AddInject counts one flit injected at node.
func (s *Spatial) AddInject(node int) { s.injected[node]++ }

// AddEject counts one flit ejected at node.
func (s *Spatial) AddEject(node int) { s.ejected[node]++ }

// AddDeflect counts one deflection at node.
func (s *Spatial) AddDeflect(node int) { s.deflected[node]++ }

// AddStarve counts one starved node-cycle at node.
func (s *Spatial) AddStarve(node int) { s.starved[node]++ }

// AddThrottle counts one policy-blocked node-cycle at node.
func (s *Spatial) AddThrottle(node int) { s.throttled[node]++ }

// Link returns the traversal count of node's output link toward dir.
func (s *Spatial) Link(node, dir int) int64 { return s.link[node*MaxPorts+dir] }

// Injected returns node's injected-flit count.
func (s *Spatial) Injected(node int) int64 { return s.injected[node] }

// Deflected returns node's deflection count.
func (s *Spatial) Deflected(node int) int64 { return s.deflected[node] }

// WriteNodeCSV writes the per-node grid as a heatmap-ready table: one
// row per node with its mesh coordinates, so a pivot on (x, y) plots
// directly.
func (s *Spatial) WriteNodeCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "node,x,y,injected,ejected,deflected,starved,throttled\n"); err != nil {
		return err
	}
	width := s.meta.Width
	if width <= 0 {
		width = s.meta.Nodes
	}
	buf := make([]byte, 0, 96)
	for n := 0; n < s.meta.Nodes; n++ {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(n%width), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(n/width), 10)
		for _, c := range [...]int64{s.injected[n], s.ejected[n], s.deflected[n], s.starved[n], s.throttled[n]} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, c, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteLinkCSV writes the link grid: one row per (node, direction)
// output link, zero rows included so consumers get the full lattice.
func (s *Spatial) WriteLinkCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "node,x,y,dir,traversals\n"); err != nil {
		return err
	}
	width := s.meta.Width
	if width <= 0 {
		width = s.meta.Nodes
	}
	dirs := [MaxPorts]string{"N", "E", "S", "W"}
	buf := make([]byte, 0, 64)
	for n := 0; n < s.meta.Nodes; n++ {
		for d := 0; d < MaxPorts; d++ {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(n), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(n%width), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(n/width), 10)
			buf = append(buf, ',')
			buf = append(buf, dirs[d]...)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.link[n*MaxPorts+d], 10)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
