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
// Stepping skips idle structure at ring granularity: a local ring whose
// slots, g2l FIFO and member NICs are all empty is not rotated (a flit
// can only re-enter it through a bridge g2l push or a NIC enqueue, both
// of which re-activate it), and the global ring is skipped while it is
// empty and every l2g FIFO is empty. Skipping is exact — rotating an
// empty ring is a no-op for every counter — and engages under the same
// policy conditions as the mesh fabrics (noc.Open or noc.IdleTicker),
// with skipped stretches replayed into the policy in bulk.
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
	// NoActiveSet forces every ring to be rotated every cycle even when
	// the active-set conditions hold; see the mesh fabrics' field of
	// the same name.
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

// Fabric is the hierarchical ring network. It implements noc.Network.
type Fabric struct {
	cfg    Config
	policy noc.InjectionPolicy
	lineTo *topology.Topology // 1xN placeholder for the harness
	cycle  int64

	nics []*noc.NIC

	// local[g] has GroupSize node stops followed by one bridge stop.
	local [][]slot
	// global has one stop per local ring (its bridge).
	global []slot
	// l2g/g2l are each bridge's transfer FIFOs.
	l2g, g2l []fifo

	// scratch rings for the per-cycle rotation.
	scratchL [][]slot
	scratchG []slot

	// Active-set state (unused when skip is false). activeG[g] is
	// cleared by ring g's rotation once it has nothing left to carry
	// and set by the global ring's g2l pushes and by NIC notifications.
	// lastTick is per node; globalOcc counts occupied global-ring slots
	// and l2gLive counts flits across all l2g FIFOs.
	skip      bool
	activeG   []uint32
	idle      noc.IdleTicker
	lastTick  []int64
	globalOcc int
	l2gLive   int64

	// tr and sp are the observability collectors; nil when disabled
	// (the common case), so every hook is one predictable branch.
	tr *obs.Tracer
	sp *obs.Spatial

	stats    noc.Stats
	inflight int64
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
	if cfg.Policy == nil {
		cfg.Policy = noc.Open{}
	}
	groups := cfg.Nodes / cfg.GroupSize
	f := &Fabric{
		cfg:    cfg,
		policy: cfg.Policy,
		lineTo: topology.New(topology.Mesh, cfg.Nodes, 1),
		nics:   make([]*noc.NIC, cfg.Nodes),
		local:  make([][]slot, groups),
		global: make([]slot, max(groups, 2)),
		l2g:    make([]fifo, groups),
		g2l:    make([]fifo, groups),
		tr:     cfg.Probe.Tracer,
		sp:     cfg.Probe.Spatial,
	}
	f.idle, _ = cfg.Policy.(noc.IdleTicker)
	_, open := cfg.Policy.(noc.Open)
	f.skip = !cfg.NoActiveSet && (open || f.idle != nil)
	if f.skip {
		f.activeG = make([]uint32, groups)
		f.lastTick = make([]int64, cfg.Nodes)
	}
	for i := range f.nics {
		f.nics[i] = noc.NewNIC(i)
		if f.skip {
			f.nics[i].SetNotify(f.notifyNIC)
		}
	}
	stops := cfg.GroupSize + 1 // node stops + bridge stop
	f.scratchL = make([][]slot, groups)
	for g := range f.local {
		f.local[g] = make([]slot, stops)
		f.scratchL[g] = make([]slot, stops)
		f.l2g[g] = fifo{buf: make([]noc.Flit, cfg.BridgeFIFO)}
		f.g2l[g] = fifo{buf: make([]noc.Flit, cfg.BridgeFIFO)}
	}
	f.scratchG = make([]slot, len(f.global))
	// Links: each ring stop's forward link plus the global ring's.
	f.stats.Links = groups*stops + len(f.global)
	return f
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// notifyNIC re-activates a node's ring when its NIC goes non-empty.
func (f *Fabric) notifyNIC(node int) { f.activateG(f.ring(node)) }

// activateG flags ring g for rotation.
func (f *Fabric) activateG(g int) { f.activeG[g] = 1 }

// ActiveSet reports whether active-set skipping is engaged and, if so,
// how many local rings are currently flagged active.
func (f *Fabric) ActiveSet() (active int, enabled bool) {
	if !f.skip {
		return 0, false
	}
	for _, a := range f.activeG {
		if a != 0 {
			active++
		}
	}
	return active, true
}

// SyncPolicy replays every pending idle stretch into the policy; it
// implements noc.PolicySyncer. See the bufferless fabric.
func (f *Fabric) SyncPolicy() {
	if !f.skip || f.idle == nil {
		return
	}
	for node := range f.lastTick {
		if gap := f.cycle - f.lastTick[node]; gap > 0 {
			f.idle.TickIdle(node, gap)
			f.lastTick[node] = f.cycle
		}
	}
}

// ring returns the local ring index of a node.
func (f *Fabric) ring(node int) int { return node / f.cfg.GroupSize }

// stopOf returns a node's stop index on its local ring.
func (f *Fabric) stopOf(node int) int { return node % f.cfg.GroupSize }

// nodeAt returns the node at a local ring stop (stops < GroupSize).
func (f *Fabric) nodeAt(g, stop int) int { return g*f.cfg.GroupSize + stop }

// Topology returns a 1xN line standing in for the node-ID space.
func (f *Fabric) Topology() *topology.Topology { return f.lineTo }

// Cycle returns completed cycles.
func (f *Fabric) Cycle() int64 { return f.cycle }

// NIC returns node i's network interface.
func (f *Fabric) NIC(i int) *noc.NIC { return f.nics[i] }

// Stats returns the accumulated counters.
func (f *Fabric) Stats() noc.Stats {
	s := f.stats
	s.Cycles = f.cycle
	return s
}

// InFlight returns flits inside rings and FIFOs.
func (f *Fabric) InFlight() int64 { return f.inflight }

// Drained reports whether nothing is queued or in flight.
func (f *Fabric) Drained() bool {
	if f.inflight != 0 {
		return false
	}
	for _, nic := range f.nics {
		if nic.HasTraffic() || nic.PendingPackets() > 0 {
			return false
		}
	}
	return true
}

// Step advances the fabric one cycle: every ring rotates one stop, with
// ejection, bridge transfer, and injection happening as slots pass.
// The local rings rotate first, then the global ring.
func (f *Fabric) Step() {
	groups := len(f.local)
	st := &f.stats
	f.localPhase(st)

	// Global ring. Skipped while it is empty and no l2g FIFO holds a
	// departure for it to pick up — rotating it then is a no-op.
	if !f.skip || f.globalOcc > 0 || f.l2gLive > 0 {
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

	f.inflight = f.stats.FlitsInjected - f.stats.FlitsEjected
	f.cycle++
}

// localPhase rotates every local ring one stop, accumulating counters
// into st.
func (f *Fabric) localPhase(st *noc.Stats) {
	stops := f.cfg.GroupSize + 1
	bridgeStop := f.cfg.GroupSize
	for g := range f.local {
		if f.skip && f.activeG[g] == 0 {
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
		if f.skip && occ == 0 && f.g2l[g].empty() && !f.groupWants(g) {
			f.activeG[g] = 0
		}
	}
}

// groupWants reports whether any member NIC of ring g has traffic.
// Flits parked in the l2g FIFO do not keep the ring active: they drain
// through the global ring, which stays awake on l2gLive.
func (f *Fabric) groupWants(g int) bool {
	for s := 0; s < f.cfg.GroupSize; s++ {
		if f.nics[f.nodeAt(g, s)].HasTraffic() {
			return true
		}
	}
	return false
}

// nodeStop processes a local ring stop: eject a flit addressed here,
// then inject into an empty slot.
func (f *Fabric) nodeStop(node int, in slot, st *noc.Stats) slot {
	if f.skip {
		if f.idle != nil {
			// Replay the ring's skipped stretch into the policy's
			// starvation window; Tick below then covers this cycle.
			if gap := f.cycle - f.lastTick[node]; gap > 0 {
				f.idle.TickIdle(node, gap)
			}
		}
		f.lastTick[node] = f.cycle + 1
	}
	nic := f.nics[node]
	if in.ok && int(in.f.Dst) == node {
		st.FlitsEjected++
		st.CrossbarTraversals++
		st.NetFlitLatencySum += f.cycle - in.f.Inject
		if f.sp != nil {
			f.sp.AddEject(node)
		}
		if f.tr != nil {
			f.tr.Eject(f.cycle, node, &in.f)
		}
		if _, done := nic.Receive(&in.f, f.cycle); done {
			st.PacketsDelivered++
			st.PacketLatencySum += f.cycle - in.f.Enq
		}
		in = slot{}
	}

	head := nic.Head()
	wanted := head != nil
	injected := false
	throttled := false
	if wanted && !in.ok {
		if noc.ThrottledKind(head.Kind) && !f.policy.Allow(node) {
			throttled = true
		} else {
			fl := nic.Pop()
			fl.Inject = f.cycle
			st.FlitsInjected++
			st.QueueLatencySum += f.cycle - fl.Enq
			st.CrossbarTraversals++
			if f.sp != nil {
				f.sp.AddInject(node)
			}
			if f.tr != nil {
				f.tr.Inject(f.cycle, node, &fl)
			}
			in = slot{f: fl, ok: true}
			injected = true
		}
	}
	if wanted {
		st.WantedCycles++
		if !injected {
			if throttled {
				st.ThrottledCycles++
				if f.sp != nil {
					f.sp.AddThrottle(node)
				}
			} else {
				st.StarvedCycles++
				if f.sp != nil {
					f.sp.AddStarve(node)
				}
			}
		}
	}
	f.policy.Tick(node, wanted, injected, throttled)

	if in.ok && f.policy.MarkCongested(node) {
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
			if f.tr != nil {
				f.tr.Buffer(f.cycle, f.nodeAt(g, 0), &in.f)
			}
			f.l2g[g].push(in.f)
			st.BufferWrites++
			if f.skip {
				f.l2gLive++
			}
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
			if f.tr != nil {
				f.tr.Buffer(f.cycle, f.nodeAt(g, 0), &in.f)
			}
			f.g2l[g].push(in.f)
			st.BufferWrites++
			if f.skip {
				f.activateG(g)
			}
			in = slot{}
		}
	}
	if !in.ok && !f.l2g[g].empty() {
		fl := f.l2g[g].pop()
		st.BufferReads++
		if f.skip {
			f.l2gLive--
		}
		in = slot{f: fl, ok: true}
	}
	return in
}
