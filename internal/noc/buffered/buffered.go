// Package buffered implements the virtual-channel input-buffered router
// baseline the paper compares against in §6.3 (footnote 5: "routers have
// 4 VCs/input and 4 flits of buffering per VC"), with credit-based flow
// control, wormhole switching, and XY dimension-order routing.
//
// Pipeline per cycle: receive → route computation → VC allocation →
// switch allocation → link/credit commit. Arbitration at both allocators
// is Oldest-First on the front flit, mirroring the bufferless fabric's
// priority discipline so the two architectures differ only in buffering.
//
// XY routing on a mesh is acyclic, so credit-based flow control is
// deadlock-free without extra VC disciplines; the package therefore
// supports mesh topologies only.
//
// The hot path mirrors the bufferless fabric's: a flit is pooled (a
// 4-byte noc.FlitPool handle) for its whole journey — allocated at
// injection, freed at ejection — and both the link pipelines and the
// input VC ring buffers carry handles, so a hop moves one word instead
// of copying a 56-byte flit in and out of a buffer. Each link ring has
// HopLatency+1 slots so a router commits its outputs directly onto the
// downstream pipelines during the single node pass (the write stage
// trails every same-cycle read; see the bufferless fabric's in field),
// and an active set skips routers with no buffered flits, no NIC
// traffic, and nothing arriving on their flit or credit pipelines.
// Committers re-activate the downstream neighbour on every flit or
// credit commit and NIC Send notifies on enqueue, so skipping is exact;
// it engages under the same policy conditions as the bufferless fabric
// (noc.Open or noc.IdleTicker).
package buffered

import (
	"fmt"
	"math/bits"

	"nocsim/internal/noc"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
)

// Config parameterises the fabric.
type Config struct {
	// Topology is required and must be a mesh.
	Topology *topology.Topology
	// VCs is the number of virtual channels per input port; 0 means 4.
	VCs int
	// BufDepth is the per-VC buffer depth in flits; 0 means 4.
	BufDepth int
	// HopLatency is the link pipeline depth in cycles; 0 means 3,
	// matching the bufferless fabric (2-cycle router + 1-cycle link).
	HopLatency int
	// EjectWidth is the number of flits the Local (ejection) output
	// port can grant per cycle; 0 means 2, matching the bufferless
	// fabric's NI datapath width.
	EjectWidth int
	// Policy gates and observes injection; nil means noc.Open{}.
	Policy noc.InjectionPolicy
	// NoActiveSet forces every router to be stepped every cycle even
	// when the active-set conditions hold; see the bufferless fabric's
	// field of the same name.
	NoActiveSet bool
	// Probe supplies the observability hooks; the zero Probe (nil
	// collectors) costs one predictable branch per event.
	Probe obs.Probe
}

const (
	maxDirs = int(topology.NumDirs)
	// localVCReq and localVCRep are the two injection-side pseudo-VCs:
	// one bound to the NIC request queue, one to the reply queue, so
	// that replies never sit behind throttled requests.
	localVCReq = 0
	localVCRep = 1
	numLocalVC = 2
)

// inVC is the state of one input virtual channel. The buffer parks
// pool handles, not flit values: a buffered flit's state lives in the
// shared pool from injection to ejection.
type inVC struct {
	buf    []noc.Handle // ring of cap BufDepth
	head   int16
	count  int16
	route  topology.Port
	routed bool
	outVC  int8 // allocated downstream VC, -1 if none
}

// router is the per-node state.
type router struct {
	// in[dir*VCs+vc] are the four direction input ports.
	in []inVC
	// nonEmpty has bit dir*VCs+vc set iff that input VC holds a flit,
	// so the allocator scans and the active-set alive test walk only
	// occupied VCs (at most 32 bits: 4 dirs × ≤8 VCs).
	nonEmpty uint32
	// busy has bit dir*VCs+vc set iff output VC vc toward direction dir
	// is owned by an in-flight packet, so VC allocation finds a free
	// output VC with one mask op instead of a scan.
	busy uint32
	// local[vc] is the injection pseudo-port: route/outVC state for the
	// packet at the front of the corresponding NIC queue.
	local [numLocalVC]struct {
		route  topology.Port
		routed bool
		outVC  int8
	}
	// out[dir*VCs+vc] is the downstream buffer credit balance of each
	// output VC.
	out []int32
}

// linkRef locates the downstream end of one outgoing link: idx is the
// plane offset neighbour*4+arrivalDir — the flit and credit pipelines
// share this geometry — and nb the neighbour; idx is -1 off the mesh
// edge (XY routing never selects such a port).
type linkRef struct {
	idx int32
	nb  int32
}

// ageKey is the Oldest-First sort key (noc.Older's exact field order)
// copied out of a candidate's front flit, so allocation and grant
// comparisons are self-contained value compares with no repeated pool
// or NIC-front lookups.
type ageKey struct {
	inject int64
	seq    uint64
	index  uint8
}

func (a ageKey) older(b ageKey) bool {
	if a.inject != b.inject {
		return a.inject < b.inject
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.index < b.index
}

// nominee is one switch-allocation candidate: a direction input VC
// (dir in 0..3) or the local injection port (dir == localDir), with its
// routed output and age key captured at nomination time.
type nominee struct {
	dir   int8 // -1 means none
	vc    int8
	route topology.Port
	age   ageKey
}

// localDir tags the local injection port in a nominee.
const localDir = int8(maxDirs)

// vcReq is one output-VC allocation request.
type vcReq struct {
	dir, vc int8
	age     ageKey
}

// scratch is the switch-allocation scratch space. Keeping it on the
// fabric (rather than on the stack) means stepping a router zeroes no
// arrays: every slot is explicitly written before it is read.
type scratch struct {
	noms     [maxDirs + 1]nominee
	granted  [maxDirs]nominee
	localReq [maxDirs + 1]nominee
	reqs     [maxDirs*8 + numLocalVC]vcReq
}

// Fabric is the buffered VC network. It implements noc.Network.
type Fabric struct {
	top    *topology.Topology
	cfg    Config
	policy noc.InjectionPolicy
	cycle  int64
	depth  int
	vcs    int
	ejectW int

	nics    []*noc.NIC
	routers []router

	// fpool stores every in-network flit; buffers and links carry its
	// handles. Injection allocates a handle, ejection frees it.
	fpool *noc.FlitPool
	// hotp caches fpool.HotPlane() across one Step, so per-flit hot
	// accesses are one indexed load. Refreshed after every Reserve.
	hotp []noc.FlitHot
	// Link pipelines in stage-major layout (see the bufferless
	// fabric's in field): lin[stage*planeSz + node*4 + arrivalDir]
	// with ringLen = depth+1 stages. The head plane (cycle%ringLen) is
	// read by the node pass while upstream routers commit into the
	// disjoint plane (cycle+depth)%ringLen, so a single pass per cycle
	// needs no separate commit phase, and each plane is swept
	// sequentially. Single writer per slot.
	//
	// A slot packs the flit and the returning credit that share the
	// physical link: low 32 bits are the flit's pool handle (0 = none)
	// and bits 32..39 hold credit+1 (0 = none; the credit is the freed
	// VC index on node's output port toward arrivalDir's opposite).
	// One word per link per cycle halves the memory the receive and
	// commit walks touch, and the zero value means "empty link".
	lin     []uint64
	ringLen int
	planeSz int
	// stage and wstage are this cycle's read and write ring slots,
	// computed once per Step so the per-node loop never divides.
	stage  int
	wstage int
	// inCount[n] counts the flits and credits currently queued in node
	// n's incoming pipelines, so "anything queued toward this node" is
	// one load. Maintained only with the active set engaged.
	inCount []int32

	// links[n*4+d] resolves the link leaving node n in direction d.
	links []linkRef

	// Active-set state; see the bufferless fabric for the three-state
	// protocol (0 idle, 1 active, 2 freshly woken).
	skip     bool
	active   []uint32
	idle     noc.IdleTicker
	lastTick []int64

	// openPol short-circuits the injection-policy interface calls when
	// the policy is noc.Open (always allow, never mark, no-op ticks).
	openPol bool

	// scr is the allocation scratch space.
	scr scratch

	stats noc.Stats

	// tr and sp are the observability collectors; nil when disabled
	// (the common case), so every hook is one predictable branch.
	tr *obs.Tracer
	sp *obs.Spatial

	inflight int64
}

// New constructs a buffered VC fabric.
func New(cfg Config) *Fabric {
	if cfg.Topology == nil {
		panic("buffered: Config.Topology is required")
	}
	if cfg.Topology.Kind() != topology.Mesh {
		panic("buffered: only mesh topologies are supported (XY+credits is deadlock-free only on acyclic channel graphs)")
	}
	if cfg.VCs <= 0 {
		cfg.VCs = 4
	}
	if cfg.VCs > 8 {
		panic("buffered: at most 8 VCs per input port are supported")
	}
	if cfg.BufDepth <= 0 {
		cfg.BufDepth = 4
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 3
	}
	if cfg.EjectWidth <= 0 {
		cfg.EjectWidth = 2
	}
	if cfg.Policy == nil {
		cfg.Policy = noc.Open{}
	}
	n := cfg.Topology.Nodes()
	ringLen := cfg.HopLatency + 1
	f := &Fabric{
		top:     cfg.Topology,
		cfg:     cfg,
		policy:  cfg.Policy,
		depth:   cfg.HopLatency,
		vcs:     cfg.VCs,
		ejectW:  cfg.EjectWidth,
		nics:    make([]*noc.NIC, n),
		routers: make([]router, n),
		fpool:   noc.NewFlitPool(),
		lin:     make([]uint64, n*maxDirs*ringLen),
		ringLen: ringLen,
		planeSz: n * maxDirs,
		links:   make([]linkRef, n*maxDirs),
		tr:      cfg.Probe.Tracer,
		sp:      cfg.Probe.Spatial,
	}
	f.idle, _ = cfg.Policy.(noc.IdleTicker)
	_, open := cfg.Policy.(noc.Open)
	f.openPol = open
	f.skip = !cfg.NoActiveSet && (open || f.idle != nil)
	if f.skip {
		f.inCount = make([]int32, n)
		f.active = make([]uint32, n)
		f.lastTick = make([]int64, n)
	}
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
	for i := range f.nics {
		f.nics[i] = noc.NewNIC(i)
		if f.skip {
			f.nics[i].SetNotify(f.activate)
		}
	}
	for i := range f.routers {
		r := &f.routers[i]
		r.in = make([]inVC, maxDirs*cfg.VCs)
		r.out = make([]int32, maxDirs*cfg.VCs)
		for j := range r.in {
			r.in[j].buf = make([]noc.Handle, cfg.BufDepth)
			r.in[j].outVC = -1
		}
		for j := range r.out {
			r.out[j] = int32(cfg.BufDepth)
		}
		for v := range r.local {
			r.local[v].outVC = -1
		}
	}
	f.stats.Links = cfg.Topology.Links()
	return f
}

// activate flags a node as freshly woken (see the bufferless fabric's
// active-state machine); it is the NIC Send notification.
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

// InFlight returns the number of flits inside the network (buffers and
// links).
func (f *Fabric) InFlight() int64 { return f.inflight }

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

// Step advances one cycle: a single pass over the (active) routers,
// each running its pipeline and committing outgoing flits and credits
// straight onto the downstream link rings.
func (f *Fabric) Step() {
	nodes := f.top.Nodes()
	f.stage = int(f.cycle % int64(f.ringLen))
	f.wstage = f.stage + f.depth
	if f.wstage >= f.ringLen {
		f.wstage -= f.ringLen
	}
	// At most one injection (the only Alloc) per node-cycle.
	f.fpool.Reserve(nodes)
	f.hotp = f.fpool.HotPlane()
	f.stepNodes(nodes, &f.stats)
	f.inflight = f.stats.FlitsInjected - f.stats.FlitsEjected
	f.cycle++
}

// stepNodes runs the router pipeline for every node in index order,
// skipping inactive ones when the active set is engaged, with the
// bufferless fabric's three-state wake protocol.
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
			f.active[node] = 1
		} else if !alive {
			f.active[node] = 0
		}
	}
}

// stepRouter runs one router's pipeline cycle. It reports whether the
// node still has any work — buffered flits, NIC traffic, or anything
// in its incoming flit/credit pipelines; allocator state held across
// an idle stretch (routed heads, busy output VCs mid-packet) is only
// ever advanced by one of those inputs, so skipping a !alive node is
// exact.
func (f *Fabric) stepRouter(node int, st *noc.Stats) (alive bool) {
	if f.skip && f.idle != nil {
		// Replay the skipped stretch into the policy; SyncPolicy and
		// this replay are lastTick's only readers, so non-IdleTicker
		// policies skip the bookkeeping entirely.
		if gap := f.cycle - f.lastTick[node]; gap > 0 {
			f.idle.TickIdle(node, gap)
		}
		f.lastTick[node] = f.cycle + 1
	}

	stage := f.stage
	r := &f.routers[node]
	base := node * maxDirs

	// 1. Receive arriving flits into input buffers; consume credits.
	// The flit stays pooled: only its handle enters the VC ring. The
	// node's four inbound slots are contiguous in the read plane, so
	// one subslice drops the per-direction offset arithmetic, and each
	// slot is one packed word carrying the link's flit and credit.
	ibase := stage*f.planeSz + base
	lin := f.lin[ibase : ibase+maxDirs : ibase+maxDirs]
	for d := 0; d < maxDirs; d++ {
		wd := lin[d]
		if wd == 0 {
			continue
		}
		lin[d] = 0
		if h := noc.Handle(wd); h != 0 {
			if f.inCount != nil {
				f.inCount[node]--
			}
			vi := d*f.vcs + int(f.hotp[h].VC)
			vc := &r.in[vi]
			if int(vc.count) >= len(vc.buf) {
				panic(fmt.Sprintf("buffered: input buffer overflow at node %d dir %d vc %d", node, d, f.hotp[h].VC))
			}
			p := int(vc.head) + int(vc.count)
			if p >= len(vc.buf) {
				p -= len(vc.buf)
			}
			vc.buf[p] = h
			vc.count++
			r.nonEmpty |= 1 << uint(vi)
			st.BufferWrites++
			if f.tr != nil {
				var fl noc.Flit
				f.fpool.Get(h, &fl)
				f.tr.Buffer(f.cycle, node, &fl)
			}
		}
		if cb := wd >> 32; cb != 0 {
			if f.inCount != nil {
				f.inCount[node]--
			}
			r.out[d*f.vcs+int(cb-1)]++
		}
	}

	// 2. One scan over the occupied input VCs does route computation
	// for unrouted head fronts, collects the VC-allocation requests
	// (fronts still lacking an output VC), and nominates each input
	// port's oldest ready VC for switch allocation. A front awaiting a
	// VC is not nominated here; if allocVCs grants it one this cycle
	// it joins the nomination then (see the grant loop), which is
	// exactly the set the separate route → allocate → nominate scans
	// produced — eligibility is oldest-wins and order-independent.
	sc := &f.scr
	reqs := &sc.reqs
	noms := &sc.noms
	noms[0].dir, noms[1].dir, noms[2].dir, noms[3].dir = -1, -1, -1, -1
	nreq := 0
	for m := r.nonEmpty; m != 0; m &= m - 1 {
		vi := bits.TrailingZeros32(m)
		vc := &r.in[vi]
		fh := &f.hotp[vc.buf[vc.head]]
		if !vc.routed {
			if fh.Index != 0 {
				continue
			}
			vc.route = f.top.XYRoute(node, int(fh.Dst))
			vc.routed = true
		}
		if vc.route != topology.Local {
			if vc.outVC < 0 {
				if fh.Index == 0 {
					reqs[nreq] = vcReq{
						dir: int8(vi / f.vcs), vc: int8(vi % f.vcs),
						age: ageKey{fh.Inject, fh.Seq, fh.Index},
					}
					nreq++
				}
				continue
			}
			if r.out[int(vc.route)*f.vcs+int(vc.outVC)] <= 0 {
				continue
			}
		}
		age := ageKey{fh.Inject, fh.Seq, fh.Index}
		d := vi / f.vcs
		if noms[d].dir < 0 || age.older(noms[d].age) {
			noms[d] = nominee{dir: int8(d), vc: int8(vi % f.vcs), route: vc.route, age: age}
		}
	}
	nic := f.nics[node]
	hasLocal := nic.HasTraffic()
	if hasLocal {
		f.routeLocal(node, nic)
	}

	// 3. VC allocation: oldest-first over head flits needing an
	// output VC. Local ejection (route == Local) needs no VC. A
	// granted front becomes switch-eligible immediately and enters the
	// nomination. An empty NIC cannot hold a routed front, so with no
	// direction requests either there is nothing to allocate.
	if nreq > 0 || hasLocal {
		f.allocVCs(node, nic, sc, nreq, st)
	}

	// 4. Switch allocation, output-port stage (the input-port
	// nomination happened in the scans above).
	wanted, injected, throttled := false, false, false
	for d := 0; d < maxDirs; d++ {
		if noms[d].dir >= 0 {
			st.Arbitrations++
		}
	}
	// Local injection port nomination: replies first.
	noms[localDir].dir = -1
	if hasLocal {
		wanted = true
		lv, thr := f.localReady(node, r, nic)
		throttled = thr
		if lv >= 0 {
			fl := f.localFront(nic, lv)
			noms[localDir] = nominee{
				dir: localDir, vc: int8(lv), route: r.local[lv].route,
				age: ageKey{fl.Inject, fl.Seq, fl.Index},
			}
			st.Arbitrations++
		}
	}

	// Output-port grant: oldest requester wins each direction; the
	// Local (ejection) port grants up to EjectWidth requesters,
	// matching the bufferless fabric's NI datapath width. With no
	// nominee on any port (the sign bit survives the AND only if every
	// dir is -1) there is nothing to grant, traverse, or commit.
	var outH [maxDirs]noc.Handle
	outC := [maxDirs]int8{-1, -1, -1, -1}
	if noms[0].dir&noms[1].dir&noms[2].dir&noms[3].dir&noms[4].dir >= 0 {
		granted := &sc.granted
		for i := range granted {
			granted[i].dir = -1
		}
		localReq := &sc.localReq
		nLocal := 0
		for i := range noms {
			nm := noms[i]
			if nm.dir < 0 {
				continue
			}
			if nm.route == topology.Local {
				localReq[nLocal] = nm
				nLocal++
				continue
			}
			out := int(nm.route)
			if granted[out].dir < 0 || nm.age.older(granted[out].age) {
				granted[out] = nm
			}
		}
		// Oldest-first among ejection requesters, up to EjectWidth.
		for i := 1; i < nLocal; i++ {
			for j := i; j > 0 && localReq[j].age.older(localReq[j-1].age); j-- {
				localReq[j], localReq[j-1] = localReq[j-1], localReq[j]
			}
		}
		if nLocal > f.ejectW {
			nLocal = f.ejectW
		}

		// Traverse: pop winners, collect outgoing flits/credits, update
		// VC state.
		for out := 0; out < maxDirs; out++ {
			g := granted[out]
			if g.dir < 0 {
				continue
			}
			if g.dir == localDir {
				injected = f.traverseLocal(node, r, nic, int(g.vc), topology.Port(out), &outH, st) || injected
			} else {
				f.traverseDir(node, r, nic, int(g.dir), int(g.vc), topology.Port(out), &outH, &outC, st)
			}
		}
		for _, g := range localReq[:nLocal] {
			if g.dir == localDir {
				injected = f.traverseLocal(node, r, nic, int(g.vc), topology.Local, &outH, st) || injected
			} else {
				f.traverseDir(node, r, nic, int(g.dir), int(g.vc), topology.Local, &outH, &outC, st)
			}
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

	// Commit departing flits and credits straight onto the downstream
	// rings; distributed congestion marking and neighbour activation
	// piggyback on the same walk.
	wbase := f.wstage * f.planeSz
	cong := !f.openPol && (outH[0]|outH[1]|outH[2]|outH[3]) != 0 &&
		f.policy.MarkCongested(node)
	lks := f.links[base : base+maxDirs : base+maxDirs]
	for d := 0; d < maxDirs; d++ {
		h, cv := outH[d], outC[d]
		if h == 0 && cv < 0 {
			continue
		}
		lk := lks[d]
		wd := uint64(h)
		if h != 0 {
			if cong {
				f.hotp[h].CongBit = true
			}
			st.LinkTraversals++
			if f.sp != nil {
				f.sp.AddLink(node, d)
			}
		}
		if cv >= 0 {
			wd |= uint64(cv+1) << 32
		}
		f.lin[wbase+int(lk.idx)] = wd
		if f.skip {
			// Load-checked: the receiver may already have stepped and
			// deactivated this cycle.
			if h != 0 {
				f.inCount[lk.nb]++
			}
			if cv >= 0 {
				f.inCount[lk.nb]++
			}
			if f.active[lk.nb] == 0 {
				f.active[lk.nb] = 1
			}
		}
	}

	alive = r.nonEmpty != 0 || nic.HasTraffic()
	if f.skip && !alive {
		// The flit+credit occupancy counter is exact, so "anything
		// queued toward this node" is one load. An earlier node may
		// have committed toward this one without re-flagging it; the
		// counter is what keeps it awake.
		alive = f.inCount[node] != 0
	}
	return alive
}

// routeLocal computes routes for the packets at the front of the NIC
// queues. State for a queue whose packet is mid-flight is left alone;
// packets enqueue atomically, so a queue never empties mid-packet.
func (f *Fabric) routeLocal(node int, nic *noc.NIC) {
	r := &f.routers[node]
	for v := 0; v < numLocalVC; v++ {
		fl := f.localFront(nic, v)
		if fl == nil {
			continue
		}
		if !r.local[v].routed && fl.Index == 0 {
			r.local[v].route = f.top.XYRoute(node, int(fl.Dst))
			r.local[v].routed = true
		}
	}
}

// localFront returns the front flit of the NIC queue bound to local VC v.
func (f *Fabric) localFront(nic *noc.NIC, v int) *noc.Flit {
	if v == localVCRep {
		return nic.HeadReply()
	}
	return nic.HeadRequest()
}

// localPop removes the front flit of the NIC queue bound to local VC v.
func (f *Fabric) localPop(nic *noc.NIC, v int) noc.Flit {
	if v == localVCRep {
		return nic.PopReply()
	}
	return nic.PopRequest()
}

// allocVCs performs output-VC allocation, oldest-first across all head
// flits (direction VCs and the local port) that need one.
func (f *Fabric) allocVCs(node int, nic *noc.NIC, sc *scratch, n int, st *noc.Stats) {
	r := &f.routers[node]
	reqs := &sc.reqs
	for v := 0; v < numLocalVC; v++ {
		lv := &r.local[v]
		if !lv.routed || lv.outVC >= 0 || lv.route == topology.Local {
			continue // cheap state checks before peeking the NIC queue
		}
		fl := f.localFront(nic, v)
		if fl != nil && fl.Index == 0 {
			reqs[n] = vcReq{dir: localDir, vc: int8(v), age: ageKey{fl.Inject, fl.Seq, fl.Index}}
			n++
		}
	}
	// Oldest-first insertion sort (n is small).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && reqs[j].age.older(reqs[j-1].age); j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for i := 0; i < n; i++ {
		var route topology.Port
		if reqs[i].dir == localDir {
			route = r.local[reqs[i].vc].route
		} else {
			route = r.in[int(reqs[i].dir)*f.vcs+int(reqs[i].vc)].route
		}
		// Grant the lowest free output VC on the routed port, if any.
		avail := ^(r.busy >> uint(int(route)*f.vcs)) & (1<<uint(f.vcs) - 1)
		if avail == 0 {
			continue
		}
		ov := bits.TrailingZeros32(avail)
		r.busy |= 1 << uint(int(route)*f.vcs+ov)
		if reqs[i].dir == localDir {
			r.local[reqs[i].vc].outVC = int8(ov)
		} else {
			r.in[int(reqs[i].dir)*f.vcs+int(reqs[i].vc)].outVC = int8(ov)
			// Freshly granted and credited fronts join this cycle's
			// switch nomination, as they did when nomination was a
			// separate post-allocation scan.
			if r.out[int(route)*f.vcs+ov] > 0 {
				d := int(reqs[i].dir)
				nm := &sc.noms[d]
				if nm.dir < 0 || reqs[i].age.older(nm.age) {
					*nm = nominee{dir: reqs[i].dir, vc: reqs[i].vc, route: route, age: reqs[i].age}
				}
			}
		}
		st.Arbitrations++
	}
}

// localReady returns the local pseudo-VC able to inject this cycle,
// reply VC first, or -1. Requests additionally pass the injection
// policy (Algorithm 3: consulted only when the network could accept the
// flit); throttled reports that the policy — rather than VC/credit
// availability — blocked an otherwise-ready injection.
func (f *Fabric) localReady(node int, r *router, nic *noc.NIC) (v int, throttled bool) {
	for _, v := range [...]int{localVCRep, localVCReq} {
		fl := f.localFront(nic, v)
		if fl == nil || !r.local[v].routed {
			continue
		}
		if r.local[v].route != topology.Local {
			if r.local[v].outVC < 0 {
				continue
			}
			if r.out[int(r.local[v].route)*f.vcs+int(r.local[v].outVC)] <= 0 {
				continue
			}
		}
		if noc.ThrottledKind(fl.Kind) && fl.Index == 0 && !f.openPol && !f.policy.Allow(node) {
			throttled = true
			continue
		}
		return v, false
	}
	return -1, throttled
}

// traverseDir moves the winning flit of a direction input VC through the
// switch: eject locally (freeing its pool slot) or forward downstream
// (the handle moves straight from the VC ring to the link ring),
// returning a credit upstream and releasing per-packet state on the
// tail flit.
func (f *Fabric) traverseDir(node int, r *router, nic *noc.NIC, dir, v int, out topology.Port, outH *[maxDirs]noc.Handle, outC *[maxDirs]int8, st *noc.Stats) {
	vi := dir*f.vcs + v
	vc := &r.in[vi]
	h := vc.buf[vc.head]
	vc.head++
	if int(vc.head) >= len(vc.buf) {
		vc.head = 0
	}
	vc.count--
	if vc.count == 0 {
		r.nonEmpty &^= 1 << uint(vi)
	}
	st.BufferReads++
	st.CrossbarTraversals++
	// Return a credit to the upstream router for the freed slot.
	outC[dir] = int8(v)
	fh := &f.hotp[h]
	tail := fh.Index == fh.Len-1
	if out == topology.Local {
		st.FlitsEjected++
		st.NetFlitLatencySum += f.cycle - fh.Inject
		var fl noc.Flit
		f.fpool.Get(h, &fl)
		f.fpool.Free(h)
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
	} else {
		ovc := vc.outVC
		r.out[int(out)*f.vcs+int(ovc)]--
		fh.VC = ovc
		outH[out] = h
	}
	if tail { // tail: release the packet's allocations
		if out != topology.Local {
			r.busy &^= 1 << uint(int(out)*f.vcs+int(vc.outVC))
		}
		vc.outVC = -1
		vc.routed = false
	}
}

// traverseLocal injects the front flit of a NIC queue, allocating its
// pool slot. Returns true when a flit entered the network.
func (f *Fabric) traverseLocal(node int, r *router, nic *noc.NIC, v int, out topology.Port, outH *[maxDirs]noc.Handle, st *noc.Stats) bool {
	fl := f.localPop(nic, v)
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
	if out == topology.Local {
		// Self-addressed packet: immediately delivered, never pooled.
		st.FlitsEjected++
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
	} else {
		ovc := r.local[v].outVC
		r.out[int(out)*f.vcs+int(ovc)]--
		fl.VC = ovc
		outH[out] = f.fpool.Alloc(&fl)
	}
	if fl.Index == fl.Len-1 {
		if out != topology.Local {
			r.busy &^= 1 << uint(int(out)*f.vcs+int(r.local[v].outVC))
		}
		r.local[v].outVC = -1
		r.local[v].routed = false
	}
	return true
}
