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
// The fabric is the router policy alone — Oldest-First arbitration and
// strict XY routing — over a chassis.Mesh, which owns the NICs,
// counters, flit pool, link-plane geometry and active set.
// Each cycle is one pass over the routers: a router reads its arriving
// flits, arbitrates, and commits its outputs directly onto the
// downstream link pipelines (the spare ring stage of chassis.Mesh keeps
// writes and reads apart). A router is stepped only while it has NIC
// traffic or flits in its incoming pipelines; skipping is exact (see
// stepRouter).
package bless

import (
	"fmt"
	"math"
	"math/bits"

	"nocsim/internal/noc"
	"nocsim/internal/noc/chassis"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

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
	// NoActiveSet forces every router to be stepped every cycle even
	// when the active-set conditions hold. Skipping is exact — counters
	// and observability output are identical either way (pinned by
	// TestActiveSetExact in stepbench) — so this exists for that test
	// and for isolating the optimisation in benchmarks.
	NoActiveSet bool
	// Probe supplies the observability hooks; the zero Probe (nil
	// collectors) costs one predictable branch per event.
	Probe obs.Probe
}

const maxDirs = int(topology.NumDirs)

// arrKey is one collected arrival's Oldest-First key, copied out of
// the flit pool's hot plane so the sorting network runs on L1-resident
// scratch: the injection cycle, then tie = Seq<<8 | Index. The packing
// keeps noc.OlderHot's order because Seq < 2^56 (noc.NewNIC bounds the
// node below 2^16 and Send the per-node counter below 2^40) and Index
// fits its byte. An empty slot holds the pad key, inject = MaxInt64,
// which sorts after every flit.
type arrKey struct {
	inject int64
	tie    uint64
}

// older is 1 if a precedes b in the Oldest-First order and 0 otherwise:
// the borrow out of the 128-bit difference a - b, with inject's sign
// bit flipped so that signed order becomes unsigned. Two subtractions
// and no branch.
func older(a, b *arrKey) uint {
	_, br := bits.Sub64(a.tie, b.tie, 0)
	_, br = bits.Sub64(uint64(a.inject)^1<<63, uint64(b.inject)^1<<63, br)
	return uint(br)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stepScratch is the arbitration workspace: the collected arrival
// handles, destinations and age keys, the age order (indices into
// them), and the departing flit per output port.
type stepScratch struct {
	hs   [maxDirs]noc.Handle
	dst  [maxDirs]int32
	keys [maxDirs]arrKey
	ord  [maxDirs]uint8
	out  [maxDirs]noc.Handle
}

// padKeys is an empty collection: every key sorts last.
var padKeys = [maxDirs]arrKey{{inject: math.MaxInt64}, {inject: math.MaxInt64}, {inject: math.MaxInt64}, {inject: math.MaxInt64}}

// cx is one compare-exchange of the sorting network over the key
// indices a and b: it returns them older first. The swap is an XOR
// under a mask built from older's borrow, so no branch depends on the
// flits' ages.
func cx(keys *[maxDirs]arrKey, a, b uint8) (uint8, uint8) {
	x := (a ^ b) & -uint8(older(&keys[b&3], &keys[a&3]))
	return a ^ x, b ^ x
}

// collect copies the arrivals in head (handle 0 is an empty link)
// into the scratch and returns their count na. It runs at a fixed
// width: every slot writes position na, which only a flit advances, so
// the arrivals land compacted in link order and an empty slot leaves
// (or overwrites) a pad key. keys is reset to pads first, so every key
// past na sorts last whatever the previous node left there.
func (sc *stepScratch) collect(head *[maxDirs]noc.Handle, hot []noc.FlitHot) int {
	sc.keys = padKeys
	na := 0
	for d := 0; d < maxDirs; d++ {
		h := head[d]
		fh := &hot[h] // slot 0, the nil handle, is a readable zero entry
		inj := fh.Inject
		if h == 0 {
			inj = math.MaxInt64
		}
		i := na & (maxDirs - 1) // na < maxDirs here; the mask drops the bounds checks
		sc.hs[i] = h
		sc.dst[i] = fh.Dst
		sc.keys[i] = arrKey{inject: inj, tie: fh.Seq<<8 | uint64(fh.Index)}
		na += b2i(h != 0)
	}
	return na
}

// sortAge orders all four keys by age with the optimal 5-comparator
// network for four inputs. Pad keys sort last, so the first na entries
// of ord are the arrivals, oldest first.
func (sc *stepScratch) sortAge() {
	k := &sc.keys
	o0, o1 := cx(k, 0, 1)
	o2, o3 := cx(k, 2, 3)
	o0, o2 = cx(k, o0, o2)
	o1, o3 = cx(k, o1, o3)
	o1, o2 = cx(k, o1, o2)
	sc.ord = [maxDirs]uint8{o0, o1, o2, o3}
}

// Fabric is the bufferless network. It implements noc.Network; the
// chassis carries everything but the router policy below.
type Fabric struct {
	chassis.Mesh
	cfg Config

	// ejectW and injectW mirror the Config fields the per-node loop
	// consults every cycle, hoisted onto the Fabric so the hot path loads
	// them without chasing the embedded Config.
	ejectW  int
	injectW int

	// in holds the incoming link pipelines as chassis link planes (see
	// chassis.Mesh): one pool handle per link and stage, 0 empty.
	in []noc.Handle

	// scr is the arbitration scratch. The per-flit arrays live here
	// rather than on stepRouter's frame so stepping a node does not
	// re-zero ~100 bytes of locals: every slot is written before it is
	// read (keys in full, hs/dst/ord up to na, out only for ports whose
	// free bit was claimed).
	scr stepScratch
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
	f := &Fabric{
		cfg:     cfg,
		ejectW:  cfg.EjectWidth,
		injectW: cfg.InjectWidth,
	}
	f.Init(cfg.Topology, cfg.HopLatency, cfg.Policy, cfg.NoActiveSet, cfg.Probe)
	f.in = make([]noc.Handle, f.PlaneLen())
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
// still has any work (NIC traffic or flits in its incoming pipelines —
// everything that could make a future cycle differ from a no-op, so
// skipping a !alive node is exact).
func (f *Fabric) stepRouter(node int, st *noc.Stats) (alive bool) {
	f.Replay(node)

	// Collect arrivals at the head stage and clear the slots.
	sc := &f.scr
	rb := f.ReadBase(node)
	head := (*[maxDirs]noc.Handle)(f.in[rb : rb+maxDirs])
	na := sc.collect(head, f.Hot)
	*head = [maxDirs]noc.Handle{}
	st.Arbitrations += int64(na)
	f.Depart(node, na)

	// Order contenders oldest first (§2.2): the globally oldest flit
	// always wins a productive port, so the network is livelock-free.
	sc.sortAge()

	// One pass over the age order does both ejection and port
	// assignment: eject up to EjectWidth arrivals destined here (the
	// rest are routed onward, deflected past their destination as
	// FLIT-BLESS does under ejection contention). Ejection never
	// consumes an output port, so a merged pass assigns exactly the
	// ports the separate eject-then-assign passes did. Each transit
	// flit is routed once; when no productive port is free, deflect
	// sends it out of the least harmful free port.
	out := &sc.out
	nic := f.NIC(node)
	ejected := 0
	// free tracks the node's unassigned valid output ports as a
	// bitmask; assigning a port clears its bit.
	full := f.Topology().PortMask(node)
	free := full
	cross := int64(0) // batched st.CrossbarTraversals
	for k := 0; k < na; k++ {
		i := sc.ord[k] & 3
		h, dst := sc.hs[i], int(sc.dst[i])
		if dst == node {
			if ejected < f.ejectW {
				ejected++
				cross++
				f.EjectHandle(node, h)
				continue
			}
		} else {
			xy, prod := f.Topology().RouteEntry(node, dst)
			if p := pick(xy, prod, free); p != 0 {
				free &^= p
				out[bits.TrailingZeros8(p)&3] = h
				cross++
				continue
			}
		}
		free &^= f.deflect(node, h, dst, free, out, st)
	}
	st.CrossbarTraversals += cross

	// Injection: the node may inject while an output link is free. An
	// empty NIC wants nothing; the policy still observes the cycle.
	if nic.HasTraffic() {
		free &^= f.inject(node, nic, free, out)
	} else {
		f.Idle(node)
	}

	// Commit departing flits straight onto the downstream pipelines.
	// The write stage trails every same-cycle read by one ring slot, so
	// these stores are invisible until the arrival cycle; congestion
	// marking and neighbour activation piggyback on the same walk.
	if assigned := full &^ free; assigned != 0 {
		cong := f.Congested(node)
		wbase := f.WriteBase()
		base := node * maxDirs
		st.LinkTraversals += int64(bits.OnesCount8(assigned))
		for m := assigned; m != 0; m &= m - 1 {
			d := bits.TrailingZeros8(m)
			h := out[d]
			if cong {
				f.Hot[h].CongBit = true
			}
			lk := f.Links[base+d]
			f.in[wbase+int(lk.Idx)] = h
			if f.Spatial != nil {
				f.Spatial.AddLink(node, d)
			}
			f.Arrive(lk.Nb, 1)
		}
	}

	return nic.HasTraffic() || f.Queued(node)
}

// deflect places flit h when no productive port is free for it (or it
// is bound here and ejection is full): onto the free valid port that
// hurts least (smallest resulting distance to the destination). One
// always exists: the number of flits needing ports never exceeds the
// node's degree. It returns the port it claimed as a one-bit mask.
func (f *Fabric) deflect(node int, h noc.Handle, dst int, free uint8, out *[maxDirs]noc.Handle, st *noc.Stats) uint8 {
	best := topology.Invalid
	bestDist := int(^uint(0) >> 1)
	for m := free; m != 0; m &= m - 1 {
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
	return 1 << uint(best)
}

// inject moves up to InjectWidth flits from the NIC into free output
// ports, consulting the policy for request flits, and reports the
// starvation outcome. It returns the ports it claimed as a mask.
func (f *Fabric) inject(node int, nic *noc.NIC, free uint8, out *[maxDirs]noc.Handle) (taken uint8) {
	wanted := false
	injected := false
	throttled := false
	for i := 0; i < f.injectW; i++ {
		head := nic.Head()
		if head == nil {
			break
		}
		wanted = true
		p := f.toward(node, int(head.Dst), free&^taken)
		if p == 0 {
			break // no free output link: starved
		}
		if noc.ThrottledKind(head.Kind) && !f.Admit(node) {
			throttled = true
			break // blocked by Algorithm 3's gate, not by the network
		}
		fl := nic.Pop()
		f.Injected(node, &fl)
		taken |= p
		out[bits.TrailingZeros8(p)&3] = f.Pool.Alloc(&fl)
		injected = true
	}
	f.Outcome(node, wanted, injected, throttled)
	return taken
}

// pick chooses among the free ports from one routing lookup: the XY
// port xy if free, else the lowest free productive direction (the
// order the old slice-based loop produced), as a one-bit mask, or 0.
// The XY port is always valid, so free alone gates it.
func pick(xy topology.Port, prod, free uint8) uint8 {
	p := uint8(1) << uint(xy) & free
	if p == 0 {
		m := prod & free
		p = m & -m
	}
	return p
}

// toward returns, as a one-bit mask, the free output port a flit at
// node bound for dst leaves by: the pick from one routing lookup if a
// productive port is free, else the lowest free port; 0 when every
// port is taken.
func (f *Fabric) toward(node, dst int, free uint8) uint8 {
	if dst != node {
		xy, prod := f.Topology().RouteEntry(node, dst)
		if p := pick(xy, prod, free); p != 0 {
			return p
		}
	}
	return free & -free
}
