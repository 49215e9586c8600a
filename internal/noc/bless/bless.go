// Package bless implements the bufferless deflection-routed on-chip
// network of Moscibroda & Mutlu's FLIT-BLESS design, the baseline
// architecture of the paper (§2.2).
//
// Routers have no buffers: every flit that arrives at a router in a
// cycle must leave it on some output link in the same (pipelined) cycle.
// When several flits contend for one productive output port, the oldest
// flit wins (Oldest-First arbitration) and the others are deflected to
// free ports. Because a 2D-mesh router has as many output links as input
// links, a free port always exists and routers never block or drop.
// Injection requires a free output link; otherwise the flit waits in the
// processor-side NIC queue and the cycle counts as starved.
//
// The fabric is stepped in a single pass per cycle: each router reads
// its arriving flits, arbitrates, and commits its outputs directly onto
// the downstream link pipelines. Every link ring carries one spare slot
// (see Fabric.in), so the slot a router writes this cycle is never one
// any router reads this cycle, and routers commit with no barrier or
// staging buffer.
//
// Two hot-path structures keep stepping cheap. Flits live in a shared
// noc.FlitPool and the link pipelines carry 4-byte handles, so an empty
// pipeline slot is a zero word and steady-state stepping allocates
// nothing. An active set skips routers with no work at all: a node is
// stepped only while it has NIC traffic, side-buffered flits, or flits
// somewhere in its incoming pipelines, and a router re-activates a
// neighbour whenever it commits a flit toward it (NIC Send notifies
// likewise). Skipping is exact, not approximate — see stepRouter — and
// engages only when the injection policy's per-cycle observation can be
// replayed in bulk (noc.IdleTicker) or is a no-op (noc.Open), and never
// under adaptive routing, whose per-cycle load decay is cheap only in
// the dense loop.
package bless

import (
	"fmt"
	"math/bits"

	"nocsim/internal/noc"
	"nocsim/internal/obs"
	"nocsim/internal/rng"
	"nocsim/internal/topology"
)

// Arbiter selects the contention-resolution policy.
type Arbiter int

const (
	// OldestFirst is the paper's baseline: flit age forms a total order,
	// the oldest contender wins each port, ties are impossible (§2.2).
	// The globally oldest flit always takes a productive port, so it
	// always makes progress: the network is livelock-free.
	OldestFirst Arbiter = iota
	// Random arbitration is the ablation: winners are picked uniformly.
	// It loses the livelock-freedom argument and ages packets unfairly.
	Random
)

func (a Arbiter) String() string {
	if a == Random {
		return "random"
	}
	return "oldest-first"
}

// Config parameterises the fabric.
type Config struct {
	// Topology is required.
	Topology *topology.Topology
	// HopLatency is the pipeline depth of one hop in cycles (router
	// pipeline + link). The paper's Table 2 uses 2-cycle routers and
	// 1-cycle links; 0 means the default of 3.
	HopLatency int
	// EjectWidth is the number of flits a node can eject per cycle; 0
	// means 2 (a 2-flit-wide NI datapath). Arrivals beyond it are
	// deflected (§2.2). Width 1 makes ejection the system bottleneck
	// under multi-flit reply traffic — deflection storms around
	// destinations inflate latency far beyond the paper's flat Fig. 2(a)
	// curve — so the wider NI is the faithful default.
	EjectWidth int
	// InjectWidth is the number of flits a node can inject per cycle;
	// 0 means 1.
	InjectWidth int
	// Policy gates and observes injection; nil means noc.Open{}.
	Policy noc.InjectionPolicy
	// Arb selects the arbitration policy.
	Arb Arbiter
	// SideBuffer enables MinBD-style minimal buffering (Fallin et al.,
	// NOCS 2012, cited as [22]): a small per-router side buffer that
	// absorbs up to one would-be-deflected flit per cycle and
	// re-injects it when an output port is free (with priority over NI
	// injection). 0 disables it; MinBD uses 4 flits.
	SideBuffer int
	// Adaptive replaces strict XY routing with locally congestion-aware
	// productive-port selection (§7 "Traffic Engineering"): among the
	// productive directions, a flit takes the one whose output port has
	// been least busy recently, steering around hot regions. Routing
	// stays minimal (only productive ports are preferred), so delivery
	// guarantees are unchanged.
	Adaptive bool
	// NoActiveSet forces every router to be stepped every cycle even
	// when the active-set conditions hold. Skipping is exact — counters
	// and observability output are identical either way (pinned by
	// TestActiveSetExact in stepbench) — so this exists for that test
	// and for isolating the optimisation in benchmarks.
	NoActiveSet bool
	// Seed seeds the Random arbiter's per-node streams.
	Seed uint64
	// Probe supplies the observability hooks; the zero Probe (nil
	// collectors) costs one predictable branch per event.
	Probe obs.Probe
}

const maxDirs = int(topology.NumDirs)

// linkRef locates the downstream end of one outgoing link; see
// Fabric.links.
type linkRef struct {
	idx, nb int32
}

// arrKey is one collected arrival's arbitration state, copied out of
// the flit pool's hot plane so the sort and routing loops run on
// L1-resident scratch instead of re-chasing scattered pool entries.
// inject/seq/index replicate noc.Older's field order.
type arrKey struct {
	inject int64
	seq    uint64
	dst    int32
	index  uint8
}

// olderKey is noc.OlderHot on copied keys: the same Oldest-First total
// order (injection cycle, packet sequence, flit index).
func olderKey(a, b *arrKey) bool {
	if a.inject != b.inject {
		return a.inject < b.inject
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.index < b.index
}

// stepScratch is the arbitration workspace: the collected arrival
// handles and their arbitration keys, the age order, and the departing
// flit per output port.
type stepScratch struct {
	hs   [maxDirs]noc.Handle
	keys [maxDirs]arrKey
	ord  [maxDirs]int32
	out  [maxDirs]noc.Handle
}

// Fabric is the bufferless network. It implements noc.Network.
type Fabric struct {
	top    *topology.Topology
	cfg    Config
	policy noc.InjectionPolicy
	cycle  int64
	depth  int

	// ejectW, injectW, sideCap and arb mirror the Config fields the
	// per-node loop consults every cycle, hoisted onto the Fabric so the
	// hot path loads them without chasing the embedded Config.
	ejectW  int
	injectW int
	sideCap int32
	arb     Arbiter

	nics []*noc.NIC
	// fpool stores every in-network flit; pipelines carry its handles.
	// hotp caches fpool's hot plane across one step (refreshed after
	// each Reserve, the only growth point) so per-flit hot accesses are
	// one indexed load.
	fpool *noc.FlitPool
	hotp  []noc.FlitHot
	// in holds the incoming link pipelines in stage-major layout:
	// in[stage*planeSz + n*4 + d] is stage s of the link arriving at
	// node n from direction d. The ring has ringLen = depth+1 stages:
	// the head plane (cycle%ringLen) is read by node n in the cycle a
	// flit arrives, while the upstream router writes into plane
	// (cycle+depth)%ringLen for arrival depth cycles later. With one
	// spare plane those two indices can never coincide, so routers
	// commit outputs directly during the node pass — no phase-2
	// barrier or staging buffer — and cross-node traffic still lands
	// on distinct array elements. Stage-major order makes the node
	// pass sweep each plane sequentially (a node's four read slots are
	// 16 contiguous bytes, and a commit lands near the reader's
	// cursor), so the working set per cycle is two L1-resident planes
	// instead of the whole array. Each link has one writer (the
	// upstream node) and one reader (node n); 0 means empty.
	in      []noc.Handle
	ringLen int
	planeSz int
	// stage and wstage are this cycle's read and write ring slots,
	// computed once per Step so the per-node loop never divides.
	stage  int
	wstage int

	// side[n*SideBuffer ...] are the per-node MinBD side buffers (ring
	// per node); sideHead/sideCount index them. Empty when disabled.
	side      []noc.Handle
	sideHead  []int32
	sideCount []int32

	// load[(n*4)+d] is an exponentially-decayed busy count per output
	// port, the local congestion estimate adaptive routing consults.
	load []uint32

	// Active-set state (nil / unused when skip is false). active[n] is
	// 0 idle, 1 active, 2 freshly woken. NIC Send notifications store
	// 2; a link commit toward an idle node stores 1. The owner demotes
	// 2 to 1 after stepping and deactivates a plain-active node once it
	// has no work left. A woken node's extra step is a no-op
	// (counter-invisible). lastTick[n] counts the cycles for which the
	// policy has observed node n, so a skipped stretch is replayed in
	// one IdleTicker call on wake-up.
	skip     bool
	active   []uint32
	idle     noc.IdleTicker
	lastTick []int64

	// openPol short-circuits the injection-policy interface calls when
	// the policy is noc.Open: three dynamic dispatches per node per
	// cycle (Allow, MarkCongested, Tick) compile down to nothing in the
	// common unthrottled configuration.
	openPol bool

	// links[n*4+d] resolves the link leaving node n in direction d to
	// its destination pipeline: idx is the in-plane offset
	// neighbour*4+arrivalDir, nb the neighbour; idx is -1 off the mesh
	// edge. Committing is pure table walks with this in place.
	links []linkRef

	// inCount[n] counts the flits currently queued in node n's incoming
	// pipelines (all stages of its in-column), so "any flit queued
	// toward this node" is one load. Maintained only with the active
	// set engaged.
	inCount []int32

	// fastRT caches Topology.RouteTableInUse so the arbitration loops
	// can take the inlinable packed-table lookup without an interface
	// query per flit.
	fastRT bool

	// scr is the arbitration scratch. The per-flit arrays live here
	// rather than on stepRouter's frame so stepping a node does not
	// re-zero ~100 bytes of locals: every slot is written before it is
	// read (hs/hot/ord up to na, out only for ports whose free bit was
	// claimed).
	scr stepScratch

	stats    noc.Stats
	inflight int64

	// tr and sp are the observability collectors; nil when disabled
	// (the common case), so every hook is one predictable branch.
	tr *obs.Tracer
	sp *obs.Spatial

	randSrc []*rng.Source // per node, Random arbiter only
}

// New constructs a bufferless fabric.
func New(cfg Config) *Fabric {
	if cfg.Topology == nil {
		panic("bless: Config.Topology is required")
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 3
	}
	if cfg.EjectWidth <= 0 {
		cfg.EjectWidth = 2
	}
	if cfg.InjectWidth <= 0 {
		cfg.InjectWidth = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = noc.Open{}
	}
	n := cfg.Topology.Nodes()
	f := &Fabric{
		top:     cfg.Topology,
		cfg:     cfg,
		policy:  cfg.Policy,
		depth:   cfg.HopLatency,
		ringLen: cfg.HopLatency + 1,
		planeSz: n * maxDirs,
		nics:    make([]*noc.NIC, n),
		fpool:   noc.NewFlitPool(),
		in:      make([]noc.Handle, n*maxDirs*(cfg.HopLatency+1)),
		tr:      cfg.Probe.Tracer,
		sp:      cfg.Probe.Spatial,
		ejectW:  cfg.EjectWidth,
		injectW: cfg.InjectWidth,
		sideCap: int32(cfg.SideBuffer),
		arb:     cfg.Arb,
	}
	f.fastRT = cfg.Topology.RouteTableInUse()
	f.idle, _ = cfg.Policy.(noc.IdleTicker)
	_, open := cfg.Policy.(noc.Open)
	f.openPol = open
	f.skip = !cfg.NoActiveSet && !cfg.Adaptive && (open || f.idle != nil)
	f.links = make([]linkRef, n*maxDirs)
	for node := 0; node < n; node++ {
		for d := 0; d < maxDirs; d++ {
			nb := cfg.Topology.Neighbor(node, topology.Port(d))
			if nb < 0 {
				f.links[node*maxDirs+d] = linkRef{idx: -1, nb: -1}
				continue
			}
			ad := int(topology.Opposite(topology.Port(d)))
			f.links[node*maxDirs+d] = linkRef{
				idx: int32(nb*maxDirs + ad),
				nb:  int32(nb),
			}
		}
	}
	if f.skip {
		f.inCount = make([]int32, n)
		f.active = make([]uint32, n)
		f.lastTick = make([]int64, n)
	}
	for i := range f.nics {
		f.nics[i] = noc.NewNIC(i)
		if f.skip {
			f.nics[i].SetNotify(f.activate)
		}
	}
	if cfg.Arb == Random {
		root := rng.New(cfg.Seed ^ 0xb1e55)
		f.randSrc = make([]*rng.Source, n)
		for i := range f.randSrc {
			f.randSrc[i] = root.SplitIndex(i)
		}
	}
	if cfg.SideBuffer > 0 {
		f.side = make([]noc.Handle, n*cfg.SideBuffer)
		f.sideHead = make([]int32, n)
		f.sideCount = make([]int32, n)
	}
	if cfg.Adaptive {
		f.load = make([]uint32, n*maxDirs)
	}
	f.stats.Links = cfg.Topology.Links()
	return f
}

// activate flags a node as freshly woken (see the active field's state
// machine); it is the NIC Send notification.
func (f *Fabric) activate(node int) { f.active[node] = 2 }

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topology.Topology { return f.top }

// Cycle returns the number of completed cycles.
func (f *Fabric) Cycle() int64 { return f.cycle }

// NIC returns node i's network interface.
func (f *Fabric) NIC(i int) *noc.NIC { return f.nics[i] }

// ActiveSet reports whether active-set skipping is engaged and, if so,
// how many nodes are currently flagged active.
func (f *Fabric) ActiveSet() (active int, enabled bool) {
	if !f.skip {
		return 0, false
	}
	for _, a := range f.active {
		if a != 0 {
			active++
		}
	}
	return active, true
}

// Stats returns the accumulated counters.
func (f *Fabric) Stats() noc.Stats {
	s := f.stats
	s.Cycles = f.cycle
	return s
}

// Drained reports whether no flit is in flight or queued.
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

// InFlight returns the number of flits currently inside the network.
func (f *Fabric) InFlight() int64 { return f.inflight }

// SyncPolicy replays every pending idle stretch into the policy so its
// per-node state (starvation windows) is as if no router had been
// skipped. The system simulator calls it before each policy epoch; it
// implements noc.PolicySyncer.
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

// Step advances one cycle: a single pass over the (active) routers,
// each reading its arriving flits, arbitrating, and committing its
// outputs onto the downstream link pipelines.
func (f *Fabric) Step() {
	nodes := f.top.Nodes()
	f.stage = int(f.cycle % int64(f.ringLen))
	f.wstage = f.stage + f.depth
	if f.wstage >= f.ringLen {
		f.wstage -= f.ringLen
	}
	f.fpool.Reserve(nodes * f.cfg.InjectWidth)
	f.hotp = f.fpool.HotPlane()
	f.stepNodes(nodes, &f.stats)
	f.inflight = f.stats.FlitsInjected - f.stats.FlitsEjected
	f.cycle++
}

// stepNodes steps every node in index order, skipping inactive ones
// when the active set is engaged.
func (f *Fabric) stepNodes(nodes int, st *noc.Stats) {
	if !f.skip {
		for node := 0; node < nodes; node++ {
			f.stepRouter(node, st)
		}
		return
	}
	for node := 0; node < nodes; node++ {
		a := f.active[node]
		if a == 0 {
			continue
		}
		alive := f.stepRouter(node, st)
		if a == 2 {
			// Freshly woken: demote to plain-active rather than
			// deactivating, so the node gets one more step.
			f.active[node] = 1
		} else if !alive {
			f.active[node] = 0
		}
	}
}

// stepRouter runs one router's cycle: read link heads, arbitrate,
// eject, inject, commit outputs downstream. It reports whether the node
// still has any work (NIC traffic, side-buffered flits, or flits in its
// incoming pipelines — everything that could make a future cycle differ
// from a no-op, so skipping a !alive node is exact).
func (f *Fabric) stepRouter(node int, st *noc.Stats) (alive bool) {
	if f.skip && f.idle != nil {
		// Replay the skipped stretch into the policy's starvation
		// window; inject's Tick below then covers this cycle. The
		// bookkeeping only exists for IdleTicker policies — SyncPolicy
		// and this replay are the sole readers — so other policies
		// skip the per-node store entirely.
		if gap := f.cycle - f.lastTick[node]; gap > 0 {
			f.idle.TickIdle(node, gap)
		}
		f.lastTick[node] = f.cycle + 1
	}

	stage := f.stage
	base := node * maxDirs

	// Collect arrivals at the head stage and clear the slots. The
	// scratch arrays are reused across nodes; only the first na slots
	// are ever read back.
	sc := &f.scr
	hs := &sc.hs
	keys := &sc.keys
	ord := &sc.ord
	na := 0
	head := f.in[stage*f.planeSz+base : stage*f.planeSz+base+maxDirs]
	for d, h := range head {
		if h != 0 {
			hs[na] = h
			fh := &f.hotp[h]
			keys[na] = arrKey{inject: fh.Inject, seq: fh.Seq, dst: fh.Dst, index: fh.Index}
			na++
			head[d] = 0
		}
	}
	st.Arbitrations += int64(na)
	if f.inCount != nil {
		f.inCount[node] -= int32(na)
	}

	// Order contenders. Oldest-First sorts by the age total order;
	// Random shuffles.
	for i := 0; i < na; i++ {
		ord[i] = int32(i)
	}
	if f.arb == OldestFirst {
		for i := 1; i < na; i++ { // insertion sort, na <= 4
			j := i
			for j > 0 && olderKey(&keys[ord[j]], &keys[ord[j-1]]) {
				ord[j], ord[j-1] = ord[j-1], ord[j]
				j--
			}
		}
	} else if na > 1 {
		src := f.randSrc[node]
		for i := na - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			ord[i], ord[j] = ord[j], ord[i]
		}
	}

	// One pass over the age order does both ejection and port
	// assignment: eject up to EjectWidth arrivals destined here (the
	// rest are routed onward, deflected past their destination as
	// FLIT-BLESS does under ejection contention). Ejection never
	// consumes an output port, so a merged pass assigns exactly the
	// ports the separate eject-then-assign passes did. The common
	// transit case — the XY port or a productive alternative is free
	// under the default routing — is inlined; ejection overflow,
	// side-buffering, deflection and adaptive routing take the
	// assignPort slow path. With MinBD side buffering, one
	// would-be-deflected flit per cycle is absorbed into the side
	// buffer instead of misrouting.
	out := sc.out[:]
	nic := f.nics[node]
	ejected := 0
	// free tracks the node's unassigned valid output ports as a
	// bitmask; assigning a port clears its bit.
	full := f.top.PortMask(node)
	free := full
	sideSlot := f.side != nil && f.sideCount[node] < f.sideCap
	cross := int64(0) // batched st.CrossbarTraversals
	for k := 0; k < na; k++ {
		i := ord[k]
		ak := &keys[i]
		dst := int(ak.dst)
		if dst == node && ejected < f.ejectW {
			ejected++
			st.FlitsEjected++
			cross++
			st.NetFlitLatencySum += f.cycle - ak.inject
			var fl noc.Flit
			f.fpool.Get(hs[i], &fl)
			if f.sp != nil {
				f.sp.AddEject(node)
			}
			if f.tr != nil {
				f.tr.Eject(f.cycle, node, &fl)
			}
			if _, done := nic.Receive(&fl, f.cycle); done {
				st.PacketsDelivered++
				st.PacketLatencySum += f.cycle - fl.Enq
			}
			f.fpool.Free(hs[i])
			continue
		}
		if dst != node && f.load == nil && f.fastRT {
			xy, prod := f.top.RouteEntryFast(node, dst)
			if free&(1<<uint(xy)) != 0 { // xy != Local: dst differs
				free &^= 1 << uint(xy)
				out[xy] = hs[i]
				cross++
				continue
			}
			if m := prod & free; m != 0 {
				d := bits.TrailingZeros8(m)
				free &^= 1 << uint(d)
				out[d] = hs[i]
				cross++
				continue
			}
		}
		f.assignPort(node, hs[i], dst, &free, out, st, &sideSlot)
	}
	st.CrossbarTraversals += cross

	// Side-buffer re-injection: one buffered flit per cycle re-enters
	// when a port is free, with priority over NI injection (MinBD).
	if f.side != nil {
		f.reinjectSide(node, &free, out, st)
	}

	// Injection: the node may inject while an output link is free. An
	// empty NIC under the Open policy makes inject a no-op (wanted
	// stays false and there is no Tick to deliver), so the call is
	// skipped outright.
	if !f.openPol || nic.HasTraffic() {
		f.inject(node, nic, &free, out, st)
	}

	// Adaptive routing's periodic decay of the local congestion
	// estimate (this cycle's busy ports are counted in the commit loop).
	if f.load != nil && f.cycle&63 == 0 {
		for d := 0; d < maxDirs; d++ {
			f.load[base+d] -= f.load[base+d] >> 1
		}
	}

	// Commit departing flits straight onto the downstream pipelines.
	// The write stage trails every same-cycle read by one ring slot, so
	// these stores are invisible until the arrival cycle; congestion
	// marking and neighbour activation piggyback on the same walk.
	if assigned := full &^ free; assigned != 0 {
		cong := !f.openPol && f.policy.MarkCongested(node)
		wbase := f.wstage * f.planeSz
		st.LinkTraversals += int64(bits.OnesCount8(assigned))
		for m := assigned; m != 0; m &= m - 1 {
			d := bits.TrailingZeros8(m)
			h := out[d]
			if cong {
				f.hotp[h].CongBit = true
			}
			if f.load != nil {
				f.load[base+d]++
			}
			lk := f.links[base+d]
			f.in[wbase+int(lk.idx)] = h
			if f.sp != nil {
				f.sp.AddLink(node, d)
			}
			if f.skip {
				// Load-checked: the receiver may already have stepped
				// and deactivated this cycle.
				f.inCount[lk.nb]++
				if f.active[lk.nb] == 0 {
					f.active[lk.nb] = 1
				}
			}
		}
	}

	alive = nic.HasTraffic() || (f.side != nil && f.sideCount[node] > 0)
	if f.skip && !alive {
		// Any flit queued toward this node keeps it awake. An earlier
		// node may have committed toward this one without re-flagging
		// it (it was still active at commit time); the exact occupancy
		// counter is what catches that flit.
		alive = f.inCount[node] != 0
	}
	return alive
}

// assignPort gives flit h an output direction: its XY choice if free,
// else a free productive direction, else — if a side-buffer slot is
// available this cycle — the side buffer, else the least-harmful free
// direction (a deflection).
func (f *Fabric) assignPort(node int, h noc.Handle, dst int, free *uint8, out []noc.Handle, st *noc.Stats, sideSlot *bool) {
	if dst != node {
		if d := f.desiredPort(node, dst, *free); d != topology.Invalid {
			*free &^= 1 << uint(d)
			out[d] = h
			st.CrossbarTraversals++
			return
		}
	}
	// Absorb into the side buffer instead of deflecting, when enabled
	// and not already used this cycle.
	if *sideSlot {
		*sideSlot = false
		d := f.cfg.SideBuffer
		idx := node*d + int(f.sideHead[node]+f.sideCount[node])%d
		f.side[idx] = h
		f.sideCount[node]++
		st.BufferWrites++
		if f.tr != nil {
			var fl noc.Flit
			f.fpool.Get(h, &fl)
			f.tr.Buffer(f.cycle, node, &fl)
		}
		return
	}

	// Deflect to the free valid port that hurts least (smallest
	// resulting distance to the destination). One always exists: the
	// number of flits needing ports never exceeds the node's degree.
	best := topology.Invalid
	bestDist := int(^uint(0) >> 1)
	for m := *free; m != 0; m &= m - 1 {
		d := topology.Port(bits.TrailingZeros8(m))
		dist := 0
		if dst != node {
			dist = f.top.Distance(f.top.Neighbor(node, d), dst)
		}
		if dist < bestDist {
			best = d
			bestDist = dist
		}
	}
	if best == topology.Invalid {
		panic(fmt.Sprintf("bless: no free port at node %d for flit ->%d", node, dst))
	}
	*free &^= 1 << uint(best)
	out[best] = h
	st.CrossbarTraversals++
	st.Deflections++
	if f.sp != nil {
		f.sp.AddDeflect(node)
	}
	if f.tr != nil {
		var fl noc.Flit
		f.fpool.Get(h, &fl)
		f.tr.Deflect(f.cycle, node, &fl)
	}
}

// reinjectSide moves the side buffer's head flit back into the router
// when an output port is free (one per cycle, before NI injection).
func (f *Fabric) reinjectSide(node int, free *uint8, out []noc.Handle, st *noc.Stats) {
	if f.sideCount[node] == 0 {
		return
	}
	d := f.cfg.SideBuffer
	//nocvet:allow handleleak peek: the handle stays owned by the side ring until the reinjection below succeeds and advances sideHead
	h := f.side[node*d+int(f.sideHead[node])]
	dir := f.freePortToward(node, int(f.fpool.Hot(h).Dst), *free)
	if dir == topology.Invalid {
		return
	}
	*free &^= 1 << uint(dir)
	out[dir] = h
	f.sideHead[node] = (f.sideHead[node] + 1) % int32(d)
	f.sideCount[node]--
	st.BufferReads++
	st.CrossbarTraversals++
}

// inject moves up to InjectWidth flits from the NIC into free output
// ports, consulting the policy for request flits, and reports the
// starvation outcome.
func (f *Fabric) inject(node int, nic *noc.NIC, free *uint8, out []noc.Handle, st *noc.Stats) {
	wanted := false
	injected := false
	throttled := false
	for i := 0; i < f.injectW; i++ {
		head := nic.Head()
		if head == nil {
			break
		}
		wanted = true
		dir := f.freePortToward(node, int(head.Dst), *free)
		if dir == topology.Invalid {
			break // no free output link: starved
		}
		if noc.ThrottledKind(head.Kind) && !f.openPol && !f.policy.Allow(node) {
			throttled = true
			break // blocked by Algorithm 3's gate, not by the network
		}
		fl := nic.Pop()
		fl.Inject = f.cycle
		*free &^= 1 << uint(dir)
		out[dir] = f.fpool.Alloc(&fl)
		st.FlitsInjected++
		st.QueueLatencySum += f.cycle - fl.Enq
		st.CrossbarTraversals++
		injected = true
		if f.sp != nil {
			f.sp.AddInject(node)
		}
		if f.tr != nil {
			f.tr.Inject(f.cycle, node, &fl)
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
	if !f.openPol {
		f.policy.Tick(node, wanted, injected, throttled)
	}
}

// desiredPort returns the flit's preferred free productive output
// direction: strict XY first under the default routing, or the
// least-recently-busy productive port under adaptive routing. Invalid
// means no productive port is free. Both the XY choice and the
// productive set are precomputed table lookups; the mask is scanned
// low-bit-first, which matches the direction order the old slice-based
// loop produced.
func (f *Fabric) desiredPort(node, dst int, free uint8) topology.Port {
	if f.load == nil {
		// Strict XY, falling back to any free productive direction.
		// One fused table load answers both queries; the XY port is
		// always valid when it exists, so free alone gates it.
		var xy topology.Port
		var prod uint8
		if f.fastRT {
			xy, prod = f.top.RouteEntryFast(node, dst)
		} else {
			xy, prod = f.top.RouteEntry(node, dst)
		}
		if xy != topology.Local && free&(1<<uint(xy)) != 0 {
			return xy
		}
		if m := prod & free; m != 0 {
			return topology.Port(bits.TrailingZeros8(m))
		}
		return topology.Invalid
	}
	// Adaptive: least-loaded free productive direction.
	best := topology.Invalid
	bestLoad := ^uint32(0)
	for m := f.top.ProductiveMask(node, dst) & free; m != 0; m &= m - 1 {
		d := topology.Port(bits.TrailingZeros8(m))
		if l := f.load[node*maxDirs+int(d)]; l < bestLoad {
			best = d
			bestLoad = l
		}
	}
	return best
}

// freePortToward returns a free output direction, preferring productive
// directions toward dst, or Invalid if every valid port is taken.
func (f *Fabric) freePortToward(node, dst int, free uint8) topology.Port {
	if dst != node {
		if d := f.desiredPort(node, dst, free); d != topology.Invalid {
			return d
		}
	}
	if free != 0 {
		return topology.Port(bits.TrailingZeros8(free))
	}
	return topology.Invalid
}
