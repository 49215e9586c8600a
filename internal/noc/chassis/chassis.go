// Package chassis is the part of a network fabric that does not depend
// on how its routers decide: the cycle counter, the NICs and their
// wake-up wiring, the counters, the injection policy hooks, the active
// set with its idle-tick replay, the injection/ejection accounting and
// the snapshot header. Every fabric embeds one by value — Base for the
// hierarchical rings, Mesh (Base plus the flit pool and the stage-major
// link-plane geometry) for the bufferless and buffered meshes — and
// keeps only its router policy and private state, so the architectures
// the paper compares differ in router policy and nothing else.
//
// The per-cycle helpers are small concrete methods the compiler inlines
// into the fabric's node loop; the chassis adds no interface or
// func-value call per node-cycle beyond the injection policy's own.
//
// Active set. A fabric steps only the units (mesh nodes, or whole local
// rings) that have work. Each unit is 0 idle, 1 active or 2 freshly
// woken. A NIC Send into an empty NIC stores 2 for the sender's unit; a
// commit toward an idle unit stores 1 (Poke, Arrive). After a unit
// steps, Settle demotes 2 to 1 — the extra step of a woken unit is a
// counter-invisible no-op — and idles a plain-active unit whose step
// reported no work left. Skipping is exact, not approximate, and
// engages only when the injection policy's per-cycle observation can be
// replayed in bulk (noc.IdleTicker) or is a no-op (noc.Open). lastTick
// counts the cycles the policy has observed per node, so Replay hands a
// skipped stretch to the policy in one TickIdle call when the node next
// steps, and SyncPolicy flushes every pending stretch before anyone
// outside the fabric reads policy state.
package chassis

import (
	"nocsim/internal/noc"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

// Base is the fabric-independent chassis. Its exported methods are the
// noc.Network surface the embedding fabric inherits, plus the
// per-cycle helpers the fabric's router code calls.
type Base struct {
	top    *topology.Topology
	policy noc.InjectionPolicy
	// openPol short-circuits the policy's interface calls when it is
	// noc.Open: Allow, MarkCongested and Tick compile down to nothing
	// in the common unthrottled configuration.
	openPol bool
	// skip engages the active set. idle is the policy's IdleTicker
	// view, set only while skipping: Replay and SyncPolicy, its only
	// users, are no-ops without it.
	skip bool
	idle noc.IdleTicker

	cycle int64
	nics  []*noc.NIC

	// active[u] is unit u's active-set state (see the package comment)
	// and group the number of consecutive nodes per unit. lastTick[n]
	// is the first cycle node n's policy has not yet observed.
	active   []uint32
	group    int
	lastTick []int64

	stats    noc.Stats
	inflight int64

	// Tracer and Spatial are the observability collectors; nil when
	// disabled (the common case), so every hook is one predictable
	// branch.
	Tracer  *obs.Tracer
	Spatial *obs.Spatial
}

// Init wires the chassis for a fabric over top with links
// unidirectional links: one NIC per node, the injection policy (nil
// means noc.Open) and an active set over units of group consecutive
// nodes, engaged unless noSkip is set.
func (c *Base) Init(top *topology.Topology, links, group int, policy noc.InjectionPolicy, noSkip bool, pr obs.Probe) {
	if policy == nil {
		policy = noc.Open{}
	}
	n := top.Nodes()
	c.top, c.policy, c.group = top, policy, group
	c.Tracer, c.Spatial = pr.Tracer, pr.Spatial
	idle, _ := policy.(noc.IdleTicker)
	_, c.openPol = policy.(noc.Open)
	c.skip = !noSkip && (c.openPol || idle != nil)
	if c.skip {
		c.idle = idle
		c.active = make([]uint32, n/group)
		c.lastTick = make([]int64, n)
	}
	c.nics = make([]*noc.NIC, n)
	wake := c.activate
	for i := range c.nics {
		c.nics[i] = noc.NewNIC(i)
		if c.skip {
			c.nics[i].SetNotify(wake)
		}
	}
	c.stats.Links = links
}

// Topology returns the fabric's topology.
func (c *Base) Topology() *topology.Topology { return c.top }

// Cycle returns the number of completed cycles.
func (c *Base) Cycle() int64 { return c.cycle }

// Nodes returns the number of nodes.
func (c *Base) Nodes() int { return len(c.nics) }

// NIC returns node i's network interface.
func (c *Base) NIC(i int) *noc.NIC { return c.nics[i] }

// Stats returns the accumulated counters.
func (c *Base) Stats() noc.Stats {
	s := c.stats
	s.Cycles = c.cycle
	return s
}

// Counters returns the live counter block the fabric's router code
// accumulates into.
func (c *Base) Counters() *noc.Stats { return &c.stats }

// InFlight returns the number of flits inside the network.
func (c *Base) InFlight() int64 { return c.inflight }

// Drained reports whether no flit is in flight or queued.
func (c *Base) Drained() bool {
	if c.inflight != 0 {
		return false
	}
	for _, nic := range c.nics {
		if nic.HasTraffic() || nic.PendingPackets() > 0 {
			return false
		}
	}
	return true
}

// ActiveSet reports whether active-set skipping is engaged and, if so,
// how many units are currently flagged active.
func (c *Base) ActiveSet() (active int, enabled bool) {
	if !c.skip {
		return 0, false
	}
	for _, a := range c.active {
		if a != 0 {
			active++
		}
	}
	return active, true
}

// SyncPolicy replays every pending idle stretch into the policy, so its
// per-node state (starvation windows) is as if no unit had been
// skipped.
func (c *Base) SyncPolicy() {
	if c.idle == nil {
		return
	}
	for node := range c.lastTick {
		if gap := c.cycle - c.lastTick[node]; gap > 0 {
			c.idle.TickIdle(node, gap)
			c.lastTick[node] = c.cycle
		}
	}
}

// EndStep closes a cycle.
func (c *Base) EndStep() {
	c.inflight = c.stats.FlitsInjected - c.stats.FlitsEjected
	c.cycle++
}

// activate is the NIC Send notification: the sender's unit is freshly
// woken.
func (c *Base) activate(node int) { c.active[node/c.group] = 2 }

// Wake returns unit u's state at the top of its step; 0 means skip it.
// Without the active set every unit steps.
func (c *Base) Wake(u int) uint32 {
	if !c.skip {
		return 1
	}
	return c.active[u]
}

// Settle applies the post-step transition to unit u, which Wake
// returned a for: freshly woken units become plain-active, plain-active
// units with nothing alive go idle.
func (c *Base) Settle(u int, a uint32, alive bool) {
	if !c.skip {
		return
	}
	if a == 2 {
		c.active[u] = 1
	} else if !alive {
		c.active[u] = 0
	}
}

// Poke flags an idle unit active. It is load-checked, so a freshly
// woken unit keeps its extra step, and a unit that already stepped and
// idled this cycle is caught.
func (c *Base) Poke(u int) {
	if c.skip && c.active[u] == 0 {
		c.active[u] = 1
	}
}

// Replay hands node's skipped stretch to the policy before the node
// steps; the node's own Tick then covers this cycle.
func (c *Base) Replay(node int) {
	if c.idle != nil {
		c.replay(node)
	}
}

func (c *Base) replay(node int) {
	if gap := c.cycle - c.lastTick[node]; gap > 0 {
		c.idle.TickIdle(node, gap)
	}
	c.lastTick[node] = c.cycle + 1
}

// Admit reports whether the policy lets node inject a throttled-kind
// flit (Algorithm 3's gate). Fabrics ask only when the network has room
// for the flit.
func (c *Base) Admit(node int) bool { return c.openPol || c.policy.Allow(node) }

// Congested reports whether flits leaving node get their congestion
// bit set (the distributed controller's marking, §6.6).
func (c *Base) Congested(node int) bool { return !c.openPol && c.policy.MarkCongested(node) }

// Outcome closes node's injection attempt for the cycle: it counts the
// wanted, throttled and starved node-cycles (see noc.InjectionPolicy
// for the distinction) and delivers the policy's Tick.
func (c *Base) Outcome(node int, wanted, injected, throttled bool) {
	if wanted {
		c.stats.WantedCycles++
		if !injected {
			if throttled {
				c.stats.ThrottledCycles++
				if c.Spatial != nil {
					c.Spatial.AddThrottle(node)
				}
			} else {
				c.stats.StarvedCycles++
				if c.Spatial != nil {
					c.Spatial.AddStarve(node)
				}
			}
		}
	}
	if !c.openPol {
		c.policy.Tick(node, wanted, injected, throttled)
	}
}

// Idle delivers the policy's Tick for a cycle in which node had nothing
// to inject.
func (c *Base) Idle(node int) {
	if !c.openPol {
		c.policy.Tick(node, false, false, false)
	}
}

// Injected stamps fl with this cycle as it leaves node's NIC for the
// network and records the injection: counters, one crossbar traversal
// and the obs events.
func (c *Base) Injected(node int, fl *noc.Flit) {
	fl.Inject = c.cycle
	c.stats.FlitsInjected++
	c.stats.QueueLatencySum += c.cycle - fl.Enq
	c.stats.CrossbarTraversals++
	if c.Spatial != nil {
		c.Spatial.AddInject(node)
	}
	if c.Tracer != nil {
		c.Tracer.Inject(c.cycle, node, fl)
	}
}

// Ejected hands fl to node's NIC for reassembly and records the
// ejection: counters and obs events. The crossbar traversal is the
// caller's to count.
func (c *Base) Ejected(node int, fl *noc.Flit) {
	c.stats.FlitsEjected++
	c.stats.NetFlitLatencySum += c.cycle - fl.Inject
	if c.Spatial != nil {
		c.Spatial.AddEject(node)
	}
	if c.Tracer != nil {
		c.Tracer.Eject(c.cycle, node, fl)
	}
	if _, done := c.nics[node].Receive(fl, c.cycle); done {
		c.stats.PacketsDelivered++
		c.stats.PacketLatencySum += c.cycle - fl.Enq
	}
}

// Dirs is the number of inter-router directions of a mesh node.
const Dirs = int(topology.NumDirs)

// Link locates the downstream end of one outgoing mesh link: Idx is
// the in-plane offset neighbour*Dirs+arrivalDir and Nb the neighbour;
// Idx is -1 off the mesh edge.
type Link struct {
	Idx, Nb int32
}

// Mesh is the chassis of the two mesh fabrics: Base plus the pooled
// flit store and the geometry of stage-major link planes.
//
// A fabric's incoming link pipelines form a plane array with ringLen =
// depth+1 stages: element stage*planeSz + n*Dirs + d is stage s of the
// link arriving at node n from direction d. The head plane
// (cycle%ringLen) is read by node n in the cycle a flit arrives, while
// the upstream router writes into plane (cycle+depth)%ringLen for
// arrival depth cycles later. With one spare plane those two indices
// never coincide, so routers commit outputs directly during the single
// node pass — no commit phase or staging buffer — and each plane is
// swept sequentially, keeping the working set per cycle to two
// L1-resident planes. Each link has one writer (the upstream node) and
// one reader. The plane's element type is the fabric's own.
type Mesh struct {
	Base

	// Pool stores every in-network flit; the fabric's planes and
	// buffers carry its handles. Hot caches the pool's hot plane across
	// one step (refreshed after every Reserve, the only growth point),
	// so per-flit hot accesses are one indexed load.
	Pool *noc.FlitPool
	Hot  []noc.FlitHot

	// Links[n*Dirs+d] resolves the link leaving node n in direction d,
	// so committing an output is a table walk.
	Links []Link

	depth   int
	ringLen int
	planeSz int
	// stage and wstage are this cycle's read and write ring stages,
	// computed once per step so the node loop never divides.
	stage  int
	wstage int
	// inCount[n] counts what is queued in node n's incoming pipelines,
	// so "anything arriving here" is one load. Kept only with the
	// active set engaged.
	inCount []int32
}

// Init wires a mesh chassis over top with depth-cycle link pipelines;
// see Base.Init for the rest.
func (m *Mesh) Init(top *topology.Topology, depth int, policy noc.InjectionPolicy, noSkip bool, pr obs.Probe) {
	m.Base.Init(top, top.Links(), 1, policy, noSkip, pr)
	n := top.Nodes()
	m.depth, m.ringLen, m.planeSz = depth, depth+1, n*Dirs
	m.Pool = noc.NewFlitPool()
	m.Links = make([]Link, n*Dirs)
	for node := 0; node < n; node++ {
		for d := 0; d < Dirs; d++ {
			lk := Link{Idx: -1, Nb: -1}
			if nb := top.Neighbor(node, topology.Port(d)); nb >= 0 {
				ad := int(topology.Opposite(topology.Port(d)))
				lk = Link{Idx: int32(nb*Dirs + ad), Nb: int32(nb)}
			}
			m.Links[node*Dirs+d] = lk
		}
	}
	if m.skip {
		m.inCount = make([]int32, n)
	}
}

// PlaneLen returns the element count of a link-plane array.
func (m *Mesh) PlaneLen() int { return m.ringLen * m.planeSz }

// BeginStep opens a cycle: it selects the read and write stages, grows
// the pool so every node can allocate perNode flits, refreshes Hot, and
// returns the counters the cycle accumulates into.
func (m *Mesh) BeginStep(perNode int) *noc.Stats {
	m.stage = int(m.cycle % int64(m.ringLen))
	m.wstage = m.stage + m.depth
	if m.wstage >= m.ringLen {
		m.wstage -= m.ringLen
	}
	m.Pool.Reserve(len(m.nics) * perNode)
	m.Hot = m.Pool.HotPlane()
	return &m.stats
}

// ReadBase is the plane offset of node's Dirs arrival slots this cycle.
func (m *Mesh) ReadBase(node int) int { return m.stage*m.planeSz + node*Dirs }

// WriteBase is the offset of the plane committed into this cycle; add
// a Link's Idx.
func (m *Mesh) WriteBase() int { return m.wstage * m.planeSz }

// Depart notes n items taken off node's incoming pipelines.
func (m *Mesh) Depart(node, n int) {
	if m.inCount != nil {
		m.inCount[node] -= int32(n)
	}
}

// Arrive notes n items committed toward node nb and wakes it.
func (m *Mesh) Arrive(nb, n int32) {
	if m.skip {
		m.inCount[nb] += n
		if m.active[nb] == 0 {
			m.active[nb] = 1
		}
	}
}

// Queued reports whether anything is in flight toward node. An earlier
// node may have committed toward this one without re-flagging it (it
// was still active then), so a node's liveness test must include it.
// Without the active set nobody asks, and it reports false.
func (m *Mesh) Queued(node int) bool { return m.inCount != nil && m.inCount[node] != 0 }

// EjectHandle ejects pooled flit h at node (see Ejected) and frees its
// slot.
func (m *Mesh) EjectHandle(node int, h noc.Handle) {
	var fl noc.Flit
	m.Pool.Get(h, &fl)
	m.Pool.Free(h)
	m.Ejected(node, &fl)
}
