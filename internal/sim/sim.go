// Package sim is the closed-loop cycle-level system simulator: it wires
// the out-of-order cores, private L1 caches, the shared-L2 address
// mapping, the on-chip network (bufferless BLESS or buffered VC), and a
// congestion controller into one clocked system, and measures the
// application-level and network-level metrics the paper's evaluation
// reports.
//
// The loop per cycle is: step every core (issue/retire; L1 misses
// inject request packets), step the network, drain delivered packets
// (requests schedule an L2 reply after the service latency; replies
// complete the outstanding miss in the requesting core's window), and —
// every Epoch cycles — run the congestion controller on the measured
// per-node starvation rates and IPF values.
//
// Back-pressure is modelled end to end: a congested network delays
// replies, stalls instruction windows, and thereby lowers the presented
// load, the self-throttling property of §3.1.
package sim

import (
	"fmt"

	"nocsim/internal/app"
	"nocsim/internal/cache"
	"nocsim/internal/core"
	"nocsim/internal/cpu"
	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/obs"
	"nocsim/internal/topology"
	"nocsim/internal/trace"
)

// ModelVersion names the behaviour of the simulated model. Every
// content address derived from a configuration (runner.CacheKey and the
// warm-prefix digest built on it) hashes it, so cached results and
// checkpoints of an older model stop matching when it changes. Bump it
// in any change that moves a result of an unchanged configuration;
// TestModelVersionPinned fails when the golden counters move without a
// bump.
const ModelVersion = 1

// RouterKind selects the network architecture.
type RouterKind int

const (
	// BLESS is the bufferless deflection fabric (the baseline).
	BLESS RouterKind = iota
	// Buffered is the 4-VC/4-flit virtual-channel fabric (§6.3).
	Buffered
	// HierRing is the bufferless hierarchical ring fabric ([21]): local
	// rings of Config.RingGroup nodes joined by one global ring.
	HierRing
)

func (r RouterKind) String() string {
	switch r {
	case Buffered:
		return "buffered"
	case HierRing:
		return "hierring"
	}
	return "bless"
}

// MappingKind selects the L1-miss home-node mapping.
type MappingKind int

const (
	// XORMap is the default per-block XOR interleaving (Table 2).
	XORMap MappingKind = iota
	// ExpMap is §3.2's randomized exponential-locality mapping.
	ExpMap
	// PowMap is the power-law alternative.
	PowMap
	// GroupMap services each node's misses within its thread group
	// (Config.Groups), modelling multithreaded regional traffic (§7).
	GroupMap
)

// ControllerKind selects the congestion-control mechanism.
type ControllerKind int

const (
	// NoControl runs the open baseline.
	NoControl ControllerKind = iota
	// Central is the paper's mechanism (Algorithms 1-3).
	Central
	// StaticUniform throttles every node at Config.StaticRate (§3.1).
	StaticUniform
	// StaticPerNode throttles node i at Config.StaticRates[i] (Fig. 5).
	StaticPerNode
	// Distributed is the §6.6 TCP-like congestion-bit controller.
	Distributed
)

func (c ControllerKind) String() string {
	switch c {
	case Central:
		return "bless-throttling"
	case StaticUniform:
		return "static"
	case StaticPerNode:
		return "static-per-node"
	case Distributed:
		return "distributed"
	}
	return "none"
}

// Config assembles a system. Zero values give the paper's Table 2
// parameters on a 4x4 mesh.
type Config struct {
	// Width and Height are the mesh dimensions; 0 means 4.
	Width, Height int
	// Topo is the topology family (mesh default).
	Topo topology.Kind
	// Router selects the fabric.
	Router RouterKind
	// Apps assigns an application per node; nil entries are idle cores.
	// Length must equal Width*Height.
	Apps []*app.Profile
	// Controller selects the congestion-control mechanism.
	Controller ControllerKind
	// Params tunes the central controller; zero means DefaultParams.
	Params core.Params
	// StaticRate is the uniform rate for StaticUniform.
	StaticRate float64
	// StaticRates are the per-node rates for StaticPerNode.
	StaticRates []float64

	// Mapping selects the miss-home mapping; MeanHops parameterises the
	// locality mappings (0 means 1.0). Groups assigns each node to a
	// thread group for GroupMap.
	Mapping  MappingKind
	MeanHops float64
	Groups   []int

	// ReqFlits and RepFlits are the packet sizes; 0 means 1 and 3
	// (a 32-byte block is 2 flits at the typical 128-bit link width,
	// plus a header flit).
	ReqFlits, RepFlits int
	// L2Latency is the home-slice service time in cycles; 0 means 6.
	// (The paper's L2 is perfect; the bank access still takes time.)
	L2Latency int64

	// CPU and L1 override Table 2's core and cache parameters.
	CPU cpu.Config
	L1  cache.L1Config
	// PhaseDwellInsns tunes trace phase lengths (trace.Config).
	PhaseDwellInsns int

	// VCs and BufDepth configure the buffered fabric; EjectWidth the
	// bufferless one.
	VCs, BufDepth, EjectWidth int
	// RingGroup is the local-ring size for the HierRing fabric; 0 means
	// 8. Width*Height must be a multiple of it.
	RingGroup int

	// Warmup declares that the run's first Warmup cycles execute under
	// the warmup-normalized configuration (NormalizeWarm): no congestion
	// controller, no observability. The runner uses
	// it to share one warmup simulation per config prefix and fork grid
	// points from its checkpoint; the simulator itself only validates it
	// when restoring across configurations (see Restore).
	Warmup int64
	// Workers is ignored: a simulation always steps on one goroutine,
	// and runs spread over cores through the runner's inter-run pool.
	// The field stays so existing configurations still compile, and
	// CacheKey zeroes it so it never reaches a content address.
	Workers int
	// Seed makes the whole system deterministic.
	Seed uint64
	// Obs configures the observability collectors (zero disables them;
	// disabled collectors cost one nil check per fabric event).
	Obs obs.Options
	// ControlTraffic, when true, injects the controller's 2n
	// coordination packets into the network as real Control packets.
	ControlTraffic bool
	// Writebacks enables the write-traffic extension: stores dirty L1
	// lines and dirty evictions travel to the victim block's home slice
	// as one-way packets. Off by default (the paper's traffic model is
	// request/reply only). StoreFrac sets the store share of memory
	// references; 0 means 0.3 when Writebacks is on.
	Writebacks bool
	StoreFrac  float64
}

func (c *Config) setDefaults() {
	if c.Width == 0 {
		c.Width = 4
	}
	if c.Height == 0 {
		c.Height = 4
	}
	if c.MeanHops == 0 {
		c.MeanHops = 1
	}
	if c.ReqFlits == 0 {
		c.ReqFlits = 1
	}
	if c.RepFlits == 0 {
		c.RepFlits = 3
	}
	if c.L2Latency == 0 {
		c.L2Latency = 6
	}
	if c.Params.Epoch == 0 {
		c.Params = core.DefaultParams()
	}
	if c.Writebacks && c.StoreFrac == 0 {
		c.StoreFrac = 0.3
	}
}

// pendingReply is an L2 access in service at a home node.
type pendingReply struct {
	home  int32
	dst   int32
	token uint64
}

// Sim is an assembled system.
type Sim struct {
	cfg    Config
	top    *topology.Topology
	net    noc.Network
	nics   []*noc.NIC // net.NIC(i), cached so per-cycle loops make no interface call
	cores  []*cpu.Core
	l1s    []*cache.L1
	mapper cache.Mapper

	policy      noc.InjectionPolicy
	corePolicy  *core.Policy      // Central
	controller  *core.Controller  // Central
	static      *core.Static      // Static*
	distributed *core.Distributed // Distributed

	cycle      int64
	tokens     []uint64 // per-core miss sequence numbers
	misses     []int64  // per-core cumulative L1 misses sent to the NoC
	selfhit    []int64  // per-core misses serviced by the local slice
	writebacks []int64  // per-core dirty evictions

	// replyWheel[home*wheelLen + (cycle+L2Latency)%wheelLen] holds the
	// L2 accesses of one home node becoming ready at that cycle.
	replyWheel [][]pendingReply
	wheelLen   int64

	// Epoch bookkeeping.
	epochStartRetired []int64
	epochStartMisses  []int64
	ipfScratch        []float64
	epochs            int64
	controlPackets    int64

	// obs owns the observability collectors; nil when Config.Obs
	// disables them all. epochNodes is the decision ledger's per-node
	// scratch, rewritten every epoch before the ledger copies it.
	obs        *obs.Observer
	epochNodes []obs.EpochNode

	// originDigest/originCycle record warm-start provenance for the run
	// manifest: the content digest of the checkpoint this Sim was
	// restored from and the cycle it resumed at. Empty for cold runs.
	// Execution metadata only — never consulted by the simulation.
	originDigest string
	originCycle  int64

	decisions []core.Decision
}

// New assembles a system from cfg.
func New(cfg Config) *Sim {
	cfg.setDefaults()
	top := topology.New(cfg.Topo, cfg.Width, cfg.Height)
	n := top.Nodes()
	if cfg.Apps == nil {
		cfg.Apps = make([]*app.Profile, n)
	}
	if len(cfg.Apps) != n {
		panic(fmt.Sprintf("sim: %d app assignments for %d nodes", len(cfg.Apps), n))
	}

	s := &Sim{
		cfg:               cfg,
		top:               top,
		cores:             make([]*cpu.Core, n),
		l1s:               make([]*cache.L1, n),
		tokens:            make([]uint64, n),
		misses:            make([]int64, n),
		selfhit:           make([]int64, n),
		writebacks:        make([]int64, n),
		epochStartRetired: make([]int64, n),
		epochStartMisses:  make([]int64, n),
		ipfScratch:        make([]float64, n),
	}
	s.wheelLen = cfg.L2Latency + 1
	s.replyWheel = make([][]pendingReply, int64(n)*s.wheelLen)

	// Observability collectors (nil when disabled).
	active := 0
	for _, a := range cfg.Apps {
		if a != nil {
			active++
		}
	}
	s.obs = obs.New(cfg.Obs, obs.Meta{
		Nodes:        n,
		Width:        top.Width(),
		Height:       top.Height(),
		ActiveNodes:  active,
		FlitsPerMiss: float64(cfg.ReqFlits + cfg.RepFlits),
	})
	if s.obs != nil && s.obs.Epochs != nil {
		s.epochNodes = make([]obs.EpochNode, n)
	}

	// Congestion-control policy.
	switch cfg.Controller {
	case Central:
		s.corePolicy = core.NewPolicy(n, 0)
		s.controller = core.NewController(s.corePolicy, cfg.Params)
		s.policy = s.corePolicy
	case StaticUniform:
		s.static = core.NewStatic(n)
		s.static.SetAll(cfg.StaticRate)
		s.policy = s.static
	case StaticPerNode:
		s.static = core.NewStatic(n)
		if len(cfg.StaticRates) != n {
			panic("sim: StaticPerNode needs one rate per node")
		}
		for i, r := range cfg.StaticRates {
			s.static.SetNode(i, r)
		}
		s.policy = s.static
	case Distributed:
		s.distributed = core.NewDistributed(n)
		s.policy = s.distributed
	default:
		s.policy = noc.Open{}
	}

	// Network fabric.
	switch cfg.Router {
	case Buffered:
		s.net = buffered.New(buffered.Config{
			Topology:   top,
			VCs:        cfg.VCs,
			BufDepth:   cfg.BufDepth,
			EjectWidth: cfg.EjectWidth,
			Policy:     s.policy,
			Probe:      s.obs.Probe(),
		})
	case HierRing:
		s.net = hierring.New(hierring.Config{
			Nodes:     n,
			GroupSize: cfg.RingGroup,
			Policy:    s.policy,
			Probe:     s.obs.Probe(),
		})
	default:
		s.net = bless.New(bless.Config{
			Topology:   top,
			EjectWidth: cfg.EjectWidth,
			Policy:     s.policy,
			Probe:      s.obs.Probe(),
		})
	}

	s.nics = make([]*noc.NIC, n)
	for i := range s.nics {
		s.nics[i] = s.net.NIC(i)
	}

	// Address mapping.
	blockBytes := cfg.L1.BlockBytes
	if blockBytes == 0 {
		blockBytes = 32
	}
	switch cfg.Mapping {
	case GroupMap:
		if len(cfg.Groups) != n {
			panic("sim: GroupMap needs one group id per node")
		}
		s.mapper = cache.NewGrouped(cfg.Groups, cfg.Seed)
	case ExpMap:
		s.mapper = cache.NewLocality(cache.LocalityConfig{
			Topology: top, Kind: cache.Exponential,
			MeanHops: cfg.MeanHops, BlockBytes: blockBytes, Seed: cfg.Seed,
		})
	case PowMap:
		s.mapper = cache.NewLocality(cache.LocalityConfig{
			Topology: top, Kind: cache.PowerLaw,
			MeanHops: cfg.MeanHops, BlockBytes: blockBytes, Seed: cfg.Seed,
		})
	default:
		s.mapper = cache.NewXORInterleave(n, blockBytes)
	}

	// Cores and caches.
	fpm := cfg.ReqFlits + cfg.RepFlits
	for i := 0; i < n; i++ {
		if cfg.Apps[i] == nil {
			continue
		}
		gen := trace.New(trace.Config{
			Profile:         *cfg.Apps[i],
			FlitsPerMiss:    fpm,
			BlockBytes:      blockBytes,
			PhaseDwellInsns: cfg.PhaseDwellInsns,
			StoreFrac:       cfg.StoreFrac,
			AddrBase:        uint64(i) << 40,
			Seed:            cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15,
		})
		s.l1s[i] = cache.NewL1(cfg.L1, gen.HotAddresses(), gen.StreamBase())
		// Pre-warm the hot blocks so measurements start without
		// cold-miss noise (the paper's long runs amortise warmup; our
		// scaled runs must not be polluted by it).
		for _, a := range gen.HotAddresses() {
			s.l1s[i].Warm(a)
		}
		s.cores[i] = cpu.New(i, cfg.CPU, gen, (*backend)(s))
	}
	return s
}

// backend adapts the Sim to cpu.MemBackend without exposing Access on
// Sim's public API.
type backend Sim

// Access implements cpu.MemBackend: look up the private L1; on a miss,
// send a request packet to the block's home slice (or service it
// locally when the mapping picks the requester's own slice). Dirty
// evictions emit one-way writeback packets when enabled.
func (b *backend) Access(coreID int, addr uint64, store bool) (bool, uint64) {
	s := (*Sim)(b)
	hit, wbAddr, wb := s.l1s[coreID].AccessRW(addr, store && s.cfg.Writebacks)
	if wb && s.cfg.Writebacks {
		home := s.mapper.Home(coreID, wbAddr)
		s.writebacks[coreID]++
		if home != coreID {
			s.net.NIC(coreID).Send(home, noc.Writeback, 0, s.cfg.RepFlits, s.cycle)
		}
	}
	if hit {
		return true, 0
	}
	s.tokens[coreID]++
	token := uint64(coreID)<<32 | (s.tokens[coreID] & 0xffffffff)
	home := s.mapper.Home(coreID, addr)
	s.misses[coreID]++
	if home == coreID {
		// Local slice: no network traversal, only the L2 service time.
		s.selfhit[coreID]++
		s.scheduleReply(home, coreID, token)
		return false, token
	}
	s.nics[coreID].Send(home, noc.Request, token, s.cfg.ReqFlits, s.cycle)
	return false, token
}

func (s *Sim) scheduleReply(home, dst int, token uint64) {
	slot := int64(home)*s.wheelLen + (s.cycle+s.cfg.L2Latency)%s.wheelLen
	s.replyWheel[slot] = append(s.replyWheel[slot], pendingReply{
		home: int32(home), dst: int32(dst), token: token,
	})
}

// Cycle returns the current cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// Network returns the underlying fabric.
func (s *Sim) Network() noc.Network { return s.net }

// Topology returns the mesh.
func (s *Sim) Topology() *topology.Topology { return s.top }

// Core returns node i's core, or nil for idle nodes.
func (s *Sim) Core(i int) *cpu.Core { return s.cores[i] }

// Decisions returns the central controller's per-epoch decisions.
func (s *Sim) Decisions() []core.Decision { return s.decisions }

// ControlPackets returns the cumulative coordination cost in packets.
func (s *Sim) ControlPackets() int64 { return s.controlPackets }

// Step advances the system one cycle.
func (s *Sim) Step() {
	// 1+2. Per node: dispatch the L2 replies finishing service this
	// cycle, then step the core.
	n := s.top.Nodes()
	for node := 0; node < n; node++ {
		s.stepNode(node)
	}

	// 3. Step the network.
	s.net.Step()

	// 4. Drain deliveries.
	for node, nic := range s.nics {
		for _, p := range nic.Delivered() {
			switch p.Kind {
			case noc.Request:
				s.scheduleReply(node, int(p.Token>>32), p.Token)
			case noc.Reply:
				s.cores[node].Complete(p.Token, s.cycle)
			}
			if p.CongBit && s.distributed != nil {
				s.distributed.OnSignal(node)
			}
		}
	}

	s.cycle++

	// 5. Controller epoch. An active-set fabric defers per-cycle policy
	// observation for idle nodes; flush that debt so the epoch reads
	// starvation windows as if no node had been skipped.
	if s.cycle%s.cfg.Params.Epoch == 0 {
		s.net.SyncPolicy()
		s.runEpoch()
	}

	// 6. Interval sample, fed from the cumulative counters.
	if s.obs != nil && s.obs.Sampler != nil && s.cycle%s.obs.Sampler.Interval == 0 {
		s.recordSample()
	}
}

// recordSample closes one observability window: cumulative fabric
// counters plus cumulative retired instructions and network misses.
func (s *Sim) recordSample() {
	retired, misses := s.totals()
	s.obs.Sampler.Record(s.cycle, s.net.Stats(), retired, misses)
}

// totals returns the cumulative retired instructions and network
// misses over all cores.
func (s *Sim) totals() (retired, misses int64) {
	for i, c := range s.cores {
		if c != nil {
			retired += c.Retired()
			misses += s.misses[i]
		}
	}
	return retired, misses
}

// Obs returns the observability collectors, or nil when disabled.
func (s *Sim) Obs() *obs.Observer { return s.obs }

// stepNode dispatches node's ready L2 replies and steps its core. It
// touches only node-local state (see Step), so distinct nodes may run
// concurrently.
func (s *Sim) stepNode(node int) {
	slot := int64(node)*s.wheelLen + s.cycle%s.wheelLen
	pending := s.replyWheel[slot]
	if len(pending) > 0 {
		for _, r := range pending {
			if r.home == r.dst {
				// Local-slice service: complete directly.
				s.cores[r.dst].Complete(r.token, s.cycle)
				continue
			}
			s.nics[r.home].Send(int(r.dst), noc.Reply, r.token, s.cfg.RepFlits, s.cycle)
		}
		s.replyWheel[slot] = pending[:0]
	}
	if c := s.cores[node]; c != nil {
		c.Step(s.cycle)
	}
}

// Close is a no-op: a Sim holds no resources beyond memory. It stays
// so that callers which release every Sim they build keep compiling.
func (s *Sim) Close() {}

// runEpoch measures per-node IPF over the elapsed epoch and invokes the
// configured controller.
func (s *Sim) runEpoch() {
	s.epochs++
	n := s.top.Nodes()
	fpm := float64(s.cfg.ReqFlits + s.cfg.RepFlits)
	var ledger *obs.EpochLedger
	if s.obs != nil {
		ledger = s.obs.Epochs
	}
	for i := 0; i < n; i++ {
		if ledger != nil {
			s.epochNodes[i] = obs.EpochNode{Node: int32(i)}
		}
		if s.cores[i] == nil {
			s.ipfScratch[i] = 0 // sanitised to IPFCap by the controller
			continue
		}
		dI := s.cores[i].Retired() - s.epochStartRetired[i]
		dM := s.misses[i] - s.epochStartMisses[i]
		s.epochStartRetired[i] = s.cores[i].Retired()
		s.epochStartMisses[i] = s.misses[i]
		if dM == 0 {
			s.ipfScratch[i] = 0
		} else {
			s.ipfScratch[i] = float64(dI) / (float64(dM) * fpm)
		}
		if ledger != nil {
			nd := &s.epochNodes[i]
			nd.IPF = s.ipfScratch[i]
			if dI > 0 {
				nd.MPKI = float64(dM) * 1000 / float64(dI)
			}
		}
	}

	var d core.Decision
	ran := true
	switch {
	case s.controller != nil:
		d = s.controller.Update(s.ipfScratch)
	case s.distributed != nil:
		s.distributed.Epoch()
		ran = false
	default:
		ran = false
	}
	if ran {
		s.controlPackets += int64(d.ControlPackets)
		if s.cfg.ControlTraffic && s.corePolicy != nil {
			s.injectControlTraffic()
		}
		// Rates aliases controller scratch; copy before storing.
		cp := d
		cp.Rates = append([]float64(nil), d.Rates...)
		s.decisions = append(s.decisions, cp)
	}

	// Decision ledger: the epoch's evidence and verdict, recorded after
	// the controller applied its rates so the rows show what each node
	// runs under next epoch.
	if ledger != nil {
		for i := 0; i < n; i++ {
			if s.cores[i] == nil {
				continue
			}
			sigma, rate := s.policyRates(i)
			s.epochNodes[i].Sigma = sigma
			s.epochNodes[i].Rate = rate
		}
		ledger.Record(s.epochs, s.cycle, s.net.Stats(), obs.EpochDecision{
			Ran: ran, Congested: d.Congested, MeanIPF: d.MeanIPF,
			ThrottledNodes: d.ThrottledNodes, ControlPackets: d.ControlPackets,
		}, s.epochNodes)
	}
}

// policyRates reads node i's measured starvation rate (sigma) and
// applied throttle rate from whichever injection policy the
// configuration runs; (0, 0) for open injection.
func (s *Sim) policyRates(i int) (sigma, rate float64) {
	switch {
	case s.corePolicy != nil:
		return s.corePolicy.M.Rate(i), s.corePolicy.T.Rate(i)
	case s.static != nil:
		return s.static.M.Rate(i), s.static.T.Rate(i)
	case s.distributed != nil:
		return s.distributed.M.Rate(i), s.distributed.Rate(i)
	}
	return 0, 0
}

// SetOrigin records warm-start provenance — the content digest of the
// checkpoint this simulation was restored from and the cycle it
// resumed at — for the run manifest. It never affects simulation.
func (s *Sim) SetOrigin(digest string, cycle int64) {
	s.originDigest = digest
	s.originCycle = cycle
}

// Origin returns the provenance recorded by SetOrigin; an empty digest
// means the run was simulated cold from cycle 0.
func (s *Sim) Origin() (digest string, cycle int64) {
	return s.originDigest, s.originCycle
}

// injectControlTraffic sends the epoch's 2n coordination packets: one
// single-flit report from every node to the controller at node 0 and
// one rate-setting back.
func (s *Sim) injectControlTraffic() {
	n := s.top.Nodes()
	for i := 1; i < n; i++ {
		s.nics[i].Send(0, noc.Control, 0, 1, s.cycle)
		s.nics[0].Send(i, noc.Control, 0, 1, s.cycle)
	}
}

// Run advances the system by the given number of cycles.
func (s *Sim) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		s.Step()
	}
}
