// Package hierring implements a bufferless hierarchical ring
// interconnect in the style the paper cites as [21] (Fallin et al., "A
// high-performance hierarchical ring on-chip interconnect with low-cost
// routers"): nodes sit on small local rings; local rings are joined by
// one global ring through bridge routers holding small transfer FIFOs.
//
// Ring stops are even cheaper than deflection routers: a flit on a ring
// simply circulates one stop per cycle until it reaches its destination
// (or its bridge), so there is no routing, no arbitration and no
// deflection — the only buffering in the network is the bridges'
// transfer FIFOs. A flit whose bridge FIFO is full keeps circulating
// and tries again next lap, which preserves losslessness without
// blocking the ring.
//
// The fabric is the rings and bridge FIFOs alone, over a chassis.Base
// that owns the NICs, counters and an active set with one unit per
// local ring: a ring whose slots, g2l FIFO and member NICs are all
// empty is not rotated (a flit can only re-enter it through a bridge
// g2l push or a NIC enqueue, both of which wake it). The global ring is
// skipped while it and every l2g FIFO are empty. Skipping is exact —
// rotating an empty ring is a no-op for every counter.
//
// The fabric implements noc.Network so the open-loop traffic harness
// drives it directly. Rings have no 2D geometry: Topology() exposes the
// node-ID space as a 1xN line for harness compatibility — use
// ID-based patterns (uniform, hotspot, bit-complement), not
// coordinate-based ones.
package hierring

import (
	"fmt"

	"nocsim/internal/noc"
	"nocsim/internal/noc/chassis"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

// Config parameterises the hierarchy.
type Config struct {
	// Nodes is the total node count; required.
	Nodes int
	// GroupSize is the number of nodes per local ring; 0 means 8.
	// Nodes must be a multiple of GroupSize.
	GroupSize int
	// BridgeFIFO is the depth of each bridge transfer FIFO; 0 means 4.
	BridgeFIFO int
	// Policy gates and observes injection; nil means noc.Open{}.
	Policy noc.InjectionPolicy
	// NoActiveSet forces every local ring to be rotated every cycle
	// even when the active-set conditions hold (see the chassis
	// package).
	NoActiveSet bool
	// Probe supplies the observability hooks; the zero Probe (nil
	// collectors) costs one predictable branch per event. Rings have no
	// 2D link geometry, so the link grid stays zero; bridge-FIFO entries
	// are attributed to the ring's first node.
	Probe obs.Probe
}

// slot is one ring position.
type slot struct {
	f  noc.Flit
	ok bool
}

// fifo is a small ring buffer of flits.
type fifo struct {
	buf   []noc.Flit
	head  int
	count int
}

func (q *fifo) full() bool  { return q.count == len(q.buf) }
func (q *fifo) empty() bool { return q.count == 0 }
func (q *fifo) push(f noc.Flit) {
	q.buf[(q.head+q.count)%len(q.buf)] = f
	q.count++
}
func (q *fifo) pop() noc.Flit {
	f := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return f
}

// Fabric is the hierarchical ring network. It implements noc.Network;
// the chassis carries everything but the rings below, with one
// active-set unit per local ring.
type Fabric struct {
	chassis.Base
	cfg Config

	// local[g] has GroupSize node stops followed by one bridge stop.
	local [][]slot
	// global has one stop per local ring (its bridge).
	global []slot
	// l2g/g2l are each bridge's transfer FIFOs.
	l2g, g2l []fifo

	// scratch rings for the per-cycle rotation.
	scratchL [][]slot
	scratchG []slot

	// globalOcc counts occupied global-ring slots and l2gLive counts
	// flits across all l2g FIFOs, so an idle global ring is skipped.
	globalOcc int
	l2gLive   int64
}

// New constructs the fabric.
func New(cfg Config) *Fabric {
	if cfg.Nodes <= 0 {
		panic("hierring: Config.Nodes is required")
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 8
	}
	if cfg.GroupSize < 2 || cfg.Nodes%cfg.GroupSize != 0 {
		panic(fmt.Sprintf("hierring: %d nodes not divisible into rings of %d", cfg.Nodes, cfg.GroupSize))
	}
	if cfg.BridgeFIFO <= 0 {
		cfg.BridgeFIFO = 4
	}
	groups := cfg.Nodes / cfg.GroupSize
	f := &Fabric{
		cfg:    cfg,
		local:  make([][]slot, groups),
		global: make([]slot, max(groups, 2)),
		l2g:    make([]fifo, groups),
		g2l:    make([]fifo, groups),
	}
	stops := cfg.GroupSize + 1 // node stops + bridge stop
	// Links: each ring stop's forward link plus the global ring's. The
	// topology is a 1xN line standing in for the node-ID space.
	f.Init(topology.New(topology.Mesh, cfg.Nodes, 1), groups*stops+len(f.global), cfg.GroupSize,
		cfg.Policy, cfg.NoActiveSet, cfg.Probe)
	f.scratchL = make([][]slot, groups)
	for g := range f.local {
		f.local[g] = make([]slot, stops)
		f.scratchL[g] = make([]slot, stops)
		f.l2g[g] = fifo{buf: make([]noc.Flit, cfg.BridgeFIFO)}
		f.g2l[g] = fifo{buf: make([]noc.Flit, cfg.BridgeFIFO)}
	}
	f.scratchG = make([]slot, len(f.global))
	return f
}

// ring returns the local ring index of a node.
func (f *Fabric) ring(node int) int { return node / f.cfg.GroupSize }

// nodeAt returns the node at a local ring stop (stops < GroupSize).
func (f *Fabric) nodeAt(g, stop int) int { return g*f.cfg.GroupSize + stop }

// Step advances the fabric one cycle: every ring rotates one stop, with
// ejection, bridge transfer, and injection happening as slots pass.
// The local rings rotate first, then the global ring.
func (f *Fabric) Step() {
	groups := len(f.local)
	st := f.Counters()
	f.localPhase(st)

	// Global ring. Skipped while it is empty and no l2g FIFO holds a
	// departure for it to pick up — rotating it then is a no-op.
	if f.globalOcc > 0 || f.l2gLive > 0 {
		gstops := len(f.global)
		occ := 0
		for s := 0; s < gstops; s++ {
			in := f.global[(s-1+gstops)%gstops]
			if in.ok {
				st.LinkTraversals++
			}
			if s < groups {
				f.scratchG[s] = f.bridgeGlobal(s, in, st)
			} else {
				f.scratchG[s] = in // filler stop on tiny configurations
			}
			if f.scratchG[s].ok {
				occ++
			}
		}
		f.global, f.scratchG = f.scratchG, f.global
		f.globalOcc = occ
	}
	f.EndStep()
}

// localPhase rotates every local ring one stop, accumulating counters
// into st.
func (f *Fabric) localPhase(st *noc.Stats) {
	stops := f.cfg.GroupSize + 1
	bridgeStop := f.cfg.GroupSize
	for g := range f.local {
		a := f.Wake(g)
		if a == 0 {
			continue
		}
		cur, next := f.local[g], f.scratchL[g]
		occ := 0
		for s := 0; s < stops; s++ {
			in := cur[(s-1+stops)%stops]
			if in.ok {
				st.LinkTraversals++
			}
			if s == bridgeStop {
				next[s] = f.bridgeLocal(g, in, st)
			} else {
				next[s] = f.nodeStop(f.nodeAt(g, s), in, st)
			}
			if next[s].ok {
				occ++
			}
		}
		f.local[g], f.scratchL[g] = next, cur
		f.Settle(g, a, occ != 0 || !f.g2l[g].empty() || f.groupWants(g))
	}
}

// groupWants reports whether any member NIC of ring g has traffic.
// Flits parked in the l2g FIFO do not keep the ring active: they drain
// through the global ring, which stays awake on l2gLive.
func (f *Fabric) groupWants(g int) bool {
	for s := 0; s < f.cfg.GroupSize; s++ {
		if f.NIC(f.nodeAt(g, s)).HasTraffic() {
			return true
		}
	}
	return false
}

// nodeStop processes a local ring stop: eject a flit addressed here,
// then inject into an empty slot.
func (f *Fabric) nodeStop(node int, in slot, st *noc.Stats) slot {
	f.Replay(node)
	if in.ok && int(in.f.Dst) == node {
		st.CrossbarTraversals++
		f.Ejected(node, &in.f)
		in = slot{}
	}

	nic := f.NIC(node)
	head := nic.Head()
	wanted := head != nil
	injected := false
	throttled := false
	if wanted && !in.ok {
		if noc.ThrottledKind(head.Kind) && !f.Admit(node) {
			throttled = true
		} else {
			in = slot{f: nic.Pop(), ok: true}
			f.Injected(node, &in.f)
			injected = true
		}
	}
	f.Outcome(node, wanted, injected, throttled)

	if in.ok && f.Congested(node) {
		in.f.CongBit = true
	}
	return in
}

// bridgeLocal processes a local ring's bridge stop: flits leaving the
// ring drop into the local-to-global FIFO (or keep circulating when it
// is full); an empty slot picks up the next global-to-local arrival.
func (f *Fabric) bridgeLocal(g int, in slot, st *noc.Stats) slot {
	if in.ok && f.ring(int(in.f.Dst)) != g {
		if !f.l2g[g].full() {
			if f.Tracer != nil {
				f.Tracer.Buffer(f.Cycle(), f.nodeAt(g, 0), &in.f)
			}
			f.l2g[g].push(in.f)
			st.BufferWrites++
			f.l2gLive++
			in = slot{}
		}
		// else: circulate another lap.
	}
	if !in.ok && !f.g2l[g].empty() {
		fl := f.g2l[g].pop()
		st.BufferReads++
		in = slot{f: fl, ok: true}
	}
	return in
}

// bridgeGlobal processes ring g's stop on the global ring: flits for
// ring g drop into its global-to-local FIFO; an empty slot picks up the
// next local-to-global departure.
func (f *Fabric) bridgeGlobal(g int, in slot, st *noc.Stats) slot {
	if in.ok && f.ring(int(in.f.Dst)) == g {
		if !f.g2l[g].full() {
			if f.Tracer != nil {
				f.Tracer.Buffer(f.Cycle(), f.nodeAt(g, 0), &in.f)
			}
			f.g2l[g].push(in.f)
			st.BufferWrites++
			f.Poke(g)
			in = slot{}
		}
	}
	if !in.ok && !f.l2g[g].empty() {
		fl := f.l2g[g].pop()
		st.BufferReads++
		f.l2gLive--
		in = slot{f: fl, ok: true}
	}
	return in
}
