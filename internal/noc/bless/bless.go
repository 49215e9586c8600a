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
// The fabric is the router policy alone — arbitration, side buffers,
// adaptive load and random streams — over a chassis.Mesh, which owns
// the NICs, counters, flit pool, link-plane geometry and active set.
// Each cycle is one pass over the routers: a router reads its arriving
// flits, arbitrates, and commits its outputs directly onto the
// downstream link pipelines (the spare ring stage of chassis.Mesh keeps
// writes and reads apart). A router is stepped only while it has NIC
// traffic, side-buffered flits or flits in its incoming pipelines;
// skipping is exact (see stepRouter) and never engages under adaptive
// routing, whose per-cycle load decay is cheap only in the dense loop.
package bless

import (
	"fmt"
	"math/bits"

	"nocsim/internal/noc"
	"nocsim/internal/noc/chassis"
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

// Fabric is the bufferless network. It implements noc.Network; the
// chassis carries everything but the router policy below.
type Fabric struct {
	chassis.Mesh
	cfg Config

	// ejectW, injectW, sideCap and arb mirror the Config fields the
	// per-node loop consults every cycle, hoisted onto the Fabric so the
	// hot path loads them without chasing the embedded Config.
	ejectW  int
	injectW int
	sideCap int32
	arb     Arbiter

	// in holds the incoming link pipelines as chassis link planes (see
	// chassis.Mesh): one pool handle per link and stage, 0 empty.
	in []noc.Handle

	// side[n*SideBuffer ...] are the per-node MinBD side buffers (ring
	// per node); sideHead/sideCount index them. Empty when disabled.
	side      []noc.Handle
	sideHead  []int32
	sideCount []int32

	// load[(n*4)+d] is an exponentially-decayed busy count per output
	// port, the local congestion estimate adaptive routing consults.
	load []uint32

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
	n := cfg.Topology.Nodes()
	f := &Fabric{
		cfg:     cfg,
		ejectW:  cfg.EjectWidth,
		injectW: cfg.InjectWidth,
		sideCap: int32(cfg.SideBuffer),
		arb:     cfg.Arb,
		fastRT:  cfg.Topology.RouteTableInUse(),
	}
	// Adaptive routing's per-cycle load decay is cheap only in the
	// dense loop, so it keeps every router stepping.
	f.Init(cfg.Topology, cfg.HopLatency, cfg.Policy, cfg.NoActiveSet || cfg.Adaptive, cfg.Probe)
	f.in = make([]noc.Handle, f.PlaneLen())
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
	return f
}

// Step advances one cycle: a single pass over the (active) routers,
// each reading its arriving flits, arbitrating, and committing its
// outputs onto the downstream link pipelines.
func (f *Fabric) Step() {
	st := f.BeginStep(f.injectW)
	for node, n := 0, f.Nodes(); node < n; node++ {
		if a := f.Wake(node); a != 0 {
			f.Settle(node, a, f.stepRouter(node, st))
		}
	}
	f.EndStep()
}

// stepRouter runs one router's cycle: read link heads, arbitrate,
// eject, inject, commit outputs downstream. It reports whether the node
// still has any work (NIC traffic, side-buffered flits, or flits in its
// incoming pipelines — everything that could make a future cycle differ
// from a no-op, so skipping a !alive node is exact).
func (f *Fabric) stepRouter(node int, st *noc.Stats) (alive bool) {
	f.Replay(node)
	base := node * maxDirs

	// Collect arrivals at the head stage and clear the slots. The
	// scratch arrays are reused across nodes; only the first na slots
	// are ever read back.
	sc := &f.scr
	hs := &sc.hs
	keys := &sc.keys
	ord := &sc.ord
	na := 0
	rb := f.ReadBase(node)
	head := f.in[rb : rb+maxDirs]
	for d, h := range head {
		if h != 0 {
			hs[na] = h
			fh := &f.Hot[h]
			keys[na] = arrKey{inject: fh.Inject, seq: fh.Seq, dst: fh.Dst, index: fh.Index}
			na++
			head[d] = 0
		}
	}
	st.Arbitrations += int64(na)
	f.Depart(node, na)

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
	nic := f.NIC(node)
	ejected := 0
	// free tracks the node's unassigned valid output ports as a
	// bitmask; assigning a port clears its bit.
	full := f.Topology().PortMask(node)
	free := full
	sideSlot := f.side != nil && f.sideCount[node] < f.sideCap
	cross := int64(0) // batched st.CrossbarTraversals
	for k := 0; k < na; k++ {
		i := ord[k]
		dst := int(keys[i].dst)
		if dst == node && ejected < f.ejectW {
			ejected++
			cross++
			f.EjectHandle(node, hs[i])
			continue
		}
		if dst != node && f.load == nil && f.fastRT {
			xy, prod := f.Topology().RouteEntryFast(node, dst)
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
	// empty NIC wants nothing; the policy still observes the cycle.
	if nic.HasTraffic() {
		f.inject(node, nic, &free, out)
	} else {
		f.Idle(node)
	}

	// Adaptive routing's periodic decay of the local congestion
	// estimate (this cycle's busy ports are counted in the commit loop).
	if f.load != nil && f.Cycle()&63 == 0 {
		for d := 0; d < maxDirs; d++ {
			f.load[base+d] -= f.load[base+d] >> 1
		}
	}

	// Commit departing flits straight onto the downstream pipelines.
	// The write stage trails every same-cycle read by one ring slot, so
	// these stores are invisible until the arrival cycle; congestion
	// marking and neighbour activation piggyback on the same walk.
	if assigned := full &^ free; assigned != 0 {
		cong := f.Congested(node)
		wbase := f.WriteBase()
		st.LinkTraversals += int64(bits.OnesCount8(assigned))
		for m := assigned; m != 0; m &= m - 1 {
			d := bits.TrailingZeros8(m)
			h := out[d]
			if cong {
				f.Hot[h].CongBit = true
			}
			if f.load != nil {
				f.load[base+d]++
			}
			lk := f.Links[base+d]
			f.in[wbase+int(lk.Idx)] = h
			if f.Spatial != nil {
				f.Spatial.AddLink(node, d)
			}
			f.Arrive(lk.Nb, 1)
		}
	}

	return nic.HasTraffic() || (f.side != nil && f.sideCount[node] > 0) || f.Queued(node)
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
		if f.Tracer != nil {
			var fl noc.Flit
			f.Pool.Get(h, &fl)
			f.Tracer.Buffer(f.Cycle(), node, &fl)
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
			dist = f.Topology().Distance(f.Topology().Neighbor(node, d), dst)
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
	if f.Spatial != nil {
		f.Spatial.AddDeflect(node)
	}
	if f.Tracer != nil {
		var fl noc.Flit
		f.Pool.Get(h, &fl)
		f.Tracer.Deflect(f.Cycle(), node, &fl)
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
	dir := f.freePortToward(node, int(f.Pool.Hot(h).Dst), *free)
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
func (f *Fabric) inject(node int, nic *noc.NIC, free *uint8, out []noc.Handle) {
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
		if noc.ThrottledKind(head.Kind) && !f.Admit(node) {
			throttled = true
			break // blocked by Algorithm 3's gate, not by the network
		}
		fl := nic.Pop()
		f.Injected(node, &fl)
		*free &^= 1 << uint(dir)
		out[dir] = f.Pool.Alloc(&fl)
		injected = true
	}
	f.Outcome(node, wanted, injected, throttled)
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
			xy, prod = f.Topology().RouteEntryFast(node, dst)
		} else {
			xy, prod = f.Topology().RouteEntry(node, dst)
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
	for m := f.Topology().ProductiveMask(node, dst) & free; m != 0; m &= m - 1 {
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
