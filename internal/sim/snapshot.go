package sim

import (
	"nocsim/internal/cache"
	"nocsim/internal/core"
	"nocsim/internal/obs"
	"nocsim/internal/snap"
	"nocsim/internal/trace"
)

// System-level checkpoint codec: Snapshot serializes the complete
// dynamic state of an assembled simulation — cores, caches, traffic
// generators, the fabric, the congestion controller, the reply wheel
// and the observability collectors — into one deterministic blob, and
// Restore overlays it onto a freshly constructed Sim. The encoding
// depends only on simulated state, never on pool layout or allocation
// history, so the same (config, cycle) always produces the
// same bytes and a restored run replays the original cycle-for-cycle.
//
// Two restore modes:
//
//   - Same configuration (modulo Obs/Warmup): full overlay,
//     including controller and collector state. Running the restored
//     Sim to cycle N is byte-identical to a straight 0→N run.
//
//   - Warm-start fork: the blob comes from a run of
//     NormalizeWarm(cfg) — no controller, no observability — stopped
//     exactly at cfg.Warmup. The dynamic state (cores, caches,
//     generators, fabric, RNG streams) is overlaid, the target's
//     controller and collectors start virgin at the fork point, and
//     epoch bookkeeping is re-based so the first epoch measures only
//     post-fork activity. This is how a sweep shares one warmup prefix
//     across grid points that differ only in measured knobs.
//
// Snapshot and Restore run only in sequential regions between Step
// calls; nothing here is reachable from any fabric's hot path.

func init() {
	snap.Cover(Sim{}, snap.Coverage{
		Serialized: []string{
			"cycle", "tokens", "misses", "selfhit", "writebacks",
			"replyWheel", "epochStartRetired", "epochStartMisses",
			"epochStats", "epochs", "controlPackets", "samples",
			"decisions", "cores", "l1s", "mapper", "net", "obs",
			"corePolicy", "controller", "static", "distributed",
		},
		Waived: map[string]string{
			"cfg":          "config: construction input",
			"top":          "construction: topology is config-derived",
			"policy":       "construction: interface view; the state lives in the concrete controller fields",
			"unaware":      "construction: stateless beyond its Policy, which is serialized",
			"latencyCtl":   "construction: stateless beyond its Policy, which is serialized",
			"wheelLen":     "construction: derived from Config.L2Latency",
			"ipfScratch":   "scratch: runEpoch rewrites every element before any read",
			"epochNodes":   "scratch: runEpoch rewrites every element before the ledger copies it",
			"originDigest": "provenance: execution metadata for manifests, never read by the simulation",
			"originCycle":  "provenance: execution metadata for manifests, never read by the simulation",
		},
	})
	snap.Cover(Config{}, snap.Coverage{
		Waived: map[string]string{
			"Width": "config: construction input", "Height": "config: construction input",
			"Topo": "config: construction input", "Router": "config: construction input",
			"Apps": "config: construction input", "Controller": "config: construction input",
			"Params": "config: construction input", "StaticRate": "config: construction input",
			"StaticRates": "config: construction input", "LatencyThresh": "config: construction input",
			"Mapping": "config: construction input", "MeanHops": "config: construction input",
			"Groups": "config: construction input", "ReqFlits": "config: construction input",
			"RepFlits": "config: construction input", "L2Latency": "config: construction input",
			"CPU": "config: construction input", "L1": "config: construction input",
			"PhaseDwellInsns": "config: construction input", "VCs": "config: construction input",
			"BufDepth": "config: construction input", "EjectWidth": "config: construction input",
			"RingGroup": "config: construction input", "RandomArb": "config: construction input",
			"SideBuffer": "config: construction input", "Adaptive": "config: construction input",
			"Warmup": "config: construction input", "Workers": "config: ignored",
			"Seed": "config: construction input", "Obs": "config: construction input",
			"RecordEpochs": "config: construction input", "ControlTraffic": "config: construction input",
			"Writebacks": "config: construction input", "StoreFrac": "config: construction input",
		},
	})
	snap.Cover(pendingReply{}, snap.Coverage{
		Serialized: []string{"home", "dst", "token"},
	})
	snap.Cover(EpochSample{}, snap.Coverage{
		Serialized: []string{"Epoch", "Node", "IPF", "Sigma", "Throttled"},
	})
}

const tagSim = 0x30

// NormalizeWarm maps cfg to its warmup configuration: the run every
// grid point sharing this config prefix starts from. Measured knobs —
// the congestion controller and its parameters, observability, epoch
// recording, control-traffic injection — are zeroed; everything that
// shapes the simulated workload and fabric (topology, apps, mapping,
// packet sizes, fabric geometry, seed) is kept. Warmup is also zeroed:
// the warmup run itself has no warmup.
func NormalizeWarm(cfg Config) Config {
	cfg.Controller = NoControl
	cfg.Params = core.Params{}
	cfg.StaticRate = 0
	cfg.StaticRates = nil
	cfg.LatencyThresh = 0
	cfg.ControlTraffic = false
	cfg.RecordEpochs = false
	cfg.Obs = obs.Options{}
	cfg.Warmup = 0
	return cfg
}

// Snapshot serializes the simulation's complete state at the current
// cycle. Call it only between Step calls.
func (s *Sim) Snapshot() []byte {
	// Flush pending idle-tick debt into the policy BEFORE any encoding:
	// the policy's starvation windows are serialized ahead of the fabric
	// section, and a node woken mid-cycle may owe the monitor a tick that
	// only the fabric's lastTick bookkeeping remembers. Restore pins
	// lastTick to the restored cycle, so the debt must be zero at encode
	// time or it is silently dropped.
	s.net.SyncPolicy()
	w := snap.NewWriter()
	s.encode(w)
	return w.Bytes()
}

// Restore assembles New(cfg) and overlays a blob produced by Snapshot.
// The blob must come from the same configuration modulo Obs and
// Warmup — or, for a warm-start fork, from the NormalizeWarm(cfg)
// run stopped exactly at cfg.Warmup.
func Restore(cfg Config, blob []byte) (*Sim, error) {
	r, err := snap.NewReader(blob)
	if err != nil {
		return nil, err
	}
	s := New(cfg)
	s.decode(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Sim) encode(w *snap.Writer) {
	w.Tag(tagSim)
	w.U8(uint8(s.cfg.Router))
	w.U8(uint8(s.cfg.Controller))
	w.I64(s.cycle)
	n := s.top.Nodes()
	w.U32(uint32(n))
	for i := 0; i < n; i++ {
		w.U64(s.tokens[i])
		w.I64(s.misses[i])
		w.I64(s.selfhit[i])
		w.I64(s.writebacks[i])
	}
	for _, slot := range s.replyWheel {
		w.U32(uint32(len(slot)))
		for _, p := range slot {
			w.I32(p.home)
			w.I32(p.dst)
			w.U64(p.token)
		}
	}
	for i, c := range s.cores {
		w.Bool(c != nil)
		if c == nil {
			continue
		}
		c.Snapshot(w)
		c.Source().(*trace.Generator).Snapshot(w)
		s.l1s[i].Snapshot(w)
	}
	cache.SnapshotMapper(w, s.mapper)
	s.encodePolicy(w)
	for i := 0; i < n; i++ {
		w.I64(s.epochStartRetired[i])
		w.I64(s.epochStartMisses[i])
	}
	w.I64(int64(s.epochStats.Links))
	s.epochStats.Snapshot(w)
	w.I64(s.epochs)
	w.I64(s.controlPackets)
	w.U32(uint32(len(s.samples)))
	for i := range s.samples {
		es := &s.samples[i]
		w.I64(es.Epoch)
		w.I32(int32(es.Node))
		w.F64(es.IPF)
		w.F64(es.Sigma)
		w.F64(es.Throttled)
	}
	w.U32(uint32(len(s.decisions)))
	for i := range s.decisions {
		d := &s.decisions[i]
		w.Bool(d.Congested)
		w.F64(d.MeanIPF)
		w.U32(uint32(len(d.Rates)))
		for _, rate := range d.Rates {
			w.F64(rate)
		}
		w.I32(int32(d.ThrottledNodes))
		w.I32(int32(d.ControlPackets))
	}
	s.net.Snapshot(w)
	w.Bool(s.obs != nil)
	if s.obs != nil {
		s.obs.Snapshot(w)
	}
}

func (s *Sim) encodePolicy(w *snap.Writer) {
	switch s.cfg.Controller {
	case Central:
		s.corePolicy.Snapshot(w)
		s.controller.SnapshotEpochs(w)
	case UnawareControl, LatencyControl:
		s.corePolicy.Snapshot(w)
	case StaticUniform, StaticPerNode:
		s.static.Snapshot(w)
	case Distributed:
		s.distributed.Snapshot(w)
	}
}

func (s *Sim) decode(r *snap.Reader) {
	r.Expect(tagSim)
	router := RouterKind(r.U8())
	controller := ControllerKind(r.U8())
	cycle := r.I64()
	if r.Err() != nil {
		return
	}
	if router != s.cfg.Router {
		r.Failf("snapshot fabric %v, config wants %v", router, s.cfg.Router)
		return
	}
	fork := controller != s.cfg.Controller
	if fork && controller != NoControl {
		r.Failf("cannot fork a %v run into a %v configuration (warm-start forks come from uncontrolled warmup runs)",
			controller, s.cfg.Controller)
		return
	}
	if fork && s.cfg.Warmup != cycle {
		r.Failf("warm-start fork at cycle %d, but Config.Warmup is %d", cycle, s.cfg.Warmup)
		return
	}
	s.cycle = cycle
	n := s.top.Nodes()
	if got := int(r.U32()); got != n {
		r.Failf("snapshot nodes %d, want %d", got, n)
		return
	}
	for i := 0; i < n; i++ {
		s.tokens[i] = r.U64()
		s.misses[i] = r.I64()
		s.selfhit[i] = r.I64()
		s.writebacks[i] = r.I64()
	}
	for slot := range s.replyWheel {
		c := int(r.U32())
		if r.Err() != nil {
			return
		}
		s.replyWheel[slot] = s.replyWheel[slot][:0]
		for k := 0; k < c; k++ {
			var p pendingReply
			p.home = r.I32()
			p.dst = r.I32()
			p.token = r.U64()
			s.replyWheel[slot] = append(s.replyWheel[slot], p)
		}
	}
	for i, c := range s.cores {
		has := r.Bool()
		if r.Err() != nil {
			return
		}
		if has != (c != nil) {
			r.Failf("snapshot core presence at node %d does not match the app assignment", i)
			return
		}
		if c == nil {
			continue
		}
		c.Restore(r)
		c.Source().(*trace.Generator).Restore(r)
		s.l1s[i].Restore(r)
	}
	cache.RestoreMapper(r, s.mapper)
	s.decodePolicy(r, controller)
	for i := 0; i < n; i++ {
		s.epochStartRetired[i] = r.I64()
		s.epochStartMisses[i] = r.I64()
	}
	links := int(r.I64())
	s.epochStats.Restore(r)
	s.epochStats.Links = links
	s.epochs = r.I64()
	s.controlPackets = r.I64()
	ns := int(r.U32())
	if r.Err() != nil {
		return
	}
	s.samples = s.samples[:0]
	for i := 0; i < ns; i++ {
		var es EpochSample
		es.Epoch = r.I64()
		es.Node = int(r.I32())
		es.IPF = r.F64()
		es.Sigma = r.F64()
		es.Throttled = r.F64()
		if r.Err() != nil {
			return
		}
		s.samples = append(s.samples, es)
	}
	nd := int(r.U32())
	if r.Err() != nil {
		return
	}
	s.decisions = s.decisions[:0]
	for i := 0; i < nd; i++ {
		var d core.Decision
		d.Congested = r.Bool()
		d.MeanIPF = r.F64()
		nr := int(r.U32())
		if r.Err() != nil {
			return
		}
		d.Rates = make([]float64, nr)
		for j := range d.Rates {
			d.Rates[j] = r.F64()
		}
		d.ThrottledNodes = int(r.I32())
		d.ControlPackets = int(r.I32())
		s.decisions = append(s.decisions, d)
	}
	s.net.Restore(r)
	hasObs := r.Bool()
	if r.Err() != nil {
		return
	}
	switch {
	case hasObs && s.obs != nil:
		s.obs.Restore(r)
	case hasObs:
		r.Failf("snapshot has observability state but the configuration disables it")
	case s.obs != nil:
		// Warm-start into an observed run: collectors begin at the fork
		// point; base the sampler's and the ledger's first windows there
		// too.
		if s.obs.Sampler != nil {
			var retired, misses int64
			for i, c := range s.cores {
				if c == nil {
					continue
				}
				retired += c.Retired()
				misses += s.misses[i]
			}
			s.obs.Sampler.Prime(s.net.Stats(), retired, misses)
		}
		if s.obs.Epochs != nil {
			s.obs.Epochs.Prime(s.net.Stats())
		}
	}
	if fork && r.Err() == nil {
		s.resetForFork()
	}
}

func (s *Sim) decodePolicy(r *snap.Reader, controller ControllerKind) {
	switch controller {
	case Central:
		s.restorePolicy(r)
		if s.controller != nil {
			s.controller.RestoreEpochs(r)
		} else {
			// Fork path never reaches here (forks restore NoControl
			// blobs), so a nil controller means a corrupt blob.
			r.Failf("central-controller section without a central controller")
		}
	case UnawareControl, LatencyControl:
		s.restorePolicy(r)
	case StaticUniform, StaticPerNode:
		if s.static == nil {
			r.Failf("static-policy section without a static policy")
			return
		}
		s.static.Restore(r)
	case Distributed:
		if s.distributed == nil {
			r.Failf("distributed-policy section without a distributed policy")
			return
		}
		s.distributed.Restore(r)
	}
}

func (s *Sim) restorePolicy(r *snap.Reader) {
	if s.corePolicy == nil {
		r.Failf("throttling-policy section without a throttling policy")
		return
	}
	s.corePolicy.Restore(r)
}

// resetForFork re-bases epoch bookkeeping at the fork point: the target
// controller engages with a virgin policy, its first epoch measures
// only post-fork IPF and starvation, and recorded series start empty.
func (s *Sim) resetForFork() {
	for i, c := range s.cores {
		if c == nil {
			s.epochStartRetired[i] = 0
			s.epochStartMisses[i] = 0
			continue
		}
		s.epochStartRetired[i] = c.Retired()
		s.epochStartMisses[i] = s.misses[i]
	}
	s.epochStats = s.net.Stats()
	s.epochs = 0
	s.controlPackets = 0
	s.samples = s.samples[:0]
	s.decisions = s.decisions[:0]
}
