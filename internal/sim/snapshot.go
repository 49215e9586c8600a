package sim

import (
	"fmt"

	"nocsim/internal/core"
	"nocsim/internal/noc"
	"nocsim/internal/obs"
	"nocsim/internal/snap"
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
			"replyWheel", "cores", "l1s", "mapper",
			"epochStartRetired", "epochStartMisses", "epochStats",
			"epochs", "controlPackets", "samples", "decisions", "net",
		},
		Waived: map[string]string{
			"corePolicy":   "hook: encoded by controller kind; a warm-start fork keeps the target's virgin policy",
			"controller":   "hook: encoded by controller kind; a warm-start fork keeps the target's virgin policy",
			"static":       "hook: encoded by controller kind; a warm-start fork keeps the target's virgin policy",
			"distributed":  "hook: encoded by controller kind; a warm-start fork keeps the target's virgin policy",
			"obs":          "hook: a warm-start fork into an observed run primes the collectors instead",
			"cfg":          "config: construction input",
			"top":          "construction: topology is config-derived",
			"nics":         "construction: the fabric's NICs, which restore in place",
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
	snap.CoverConfig(Config{})
	snap.Cover(pendingReply{}, snap.Coverage{
		Serialized: []string{"home", "dst", "token"},
	})
	snap.Cover(EpochSample{}, snap.Coverage{
		Serialized: []string{"Epoch", "Node", "IPF", "Sigma", "Throttled"},
	})
}

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
	snap.Encode(w, s)
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
	snap.Decode(r, s)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n := r.Rest(); n != 0 {
		return nil, fmt.Errorf("snap: %d trailing bytes after the snapshot", n)
	}
	return s, nil
}

// EncodeSnap writes what the field walk cannot: the controller kind
// and, for a controlled run, its policy state; then the observability
// collectors behind a presence flag.
func (s *Sim) EncodeSnap(w *snap.Writer) {
	w.U8(uint8(s.cfg.Controller))
	if s.cfg.Controller != NoControl {
		snap.Encode(w, &s.corePolicy)
		snap.Encode(w, &s.controller)
		snap.Encode(w, &s.static)
		snap.Encode(w, &s.distributed)
	}
	w.Bool(s.obs != nil)
	if s.obs != nil {
		snap.Encode(w, s.obs)
	}
}

// DecodeSnap checks the restored misses as a whole (checkMisses),
// decodes the controller and collectors, and handles a warm-start
// fork: a blob from the uncontrolled, unobserved warmup run stopped
// exactly at Config.Warmup leaves the target's controller virgin,
// primes its collectors at the fork point and re-bases epoch
// bookkeeping.
func (s *Sim) DecodeSnap(r *snap.Reader) {
	if s.cycle != s.net.Cycle() {
		r.Failf("system cycle %d, fabric cycle %d", s.cycle, s.net.Cycle())
	}
	s.checkMisses(r)
	controller := ControllerKind(r.U8())
	fork := controller != s.cfg.Controller
	switch {
	case r.Err() != nil:
		return
	case fork && controller != NoControl:
		r.Failf("cannot fork a %v run into a %v configuration (warm-start forks come from uncontrolled warmup runs)",
			controller, s.cfg.Controller)
	case fork && s.cfg.Warmup != s.cycle:
		r.Failf("warm-start fork at cycle %d, but Config.Warmup is %d", s.cycle, s.cfg.Warmup)
	case controller != NoControl:
		snap.Decode(r, &s.corePolicy)
		snap.Decode(r, &s.controller)
		snap.Decode(r, &s.static)
		snap.Decode(r, &s.distributed)
	}
	hasObs := r.Bool()
	switch {
	case r.Err() != nil:
		return
	case hasObs && s.obs != nil:
		snap.Decode(r, s.obs)
	case hasObs:
		r.Failf("snapshot has observability state but the configuration disables it")
	case s.obs != nil:
		// Warm-start into an observed run: the collectors' first windows
		// begin at the fork point.
		retired, misses := s.totals()
		s.obs.Prime(s.net.Stats(), retired, misses)
	}
	if fork && r.Err() == nil {
		s.resetForFork()
	}
}

// checkMisses fails r unless the restored misses are consistent where
// stepping indexes by them: every token a core awaits names the core
// and came from its counter; every flit, reassembly, undrained packet
// and L2 reply routes inside the system; the flits of one packet agree
// on its header; and every request or reply carries a token its core
// awaits, one packet per token.
func (s *Sim) checkMisses(r *snap.Reader) {
	n := int32(s.top.Nodes())
	awaited := map[uint64]bool{}
	for id, c := range s.cores {
		if c == nil {
			continue
		}
		c.Awaiting(func(tok uint64) {
			if tok>>32 != uint64(id) || tok&0xffffffff > s.tokens[id] {
				r.Failf("core %d awaits token %#x it never issued", id, tok)
			}
			awaited[tok] = true
		})
	}
	carrier := map[uint64]uint64{} // token -> packet seq; 0 for an L2 reply
	carry := func(seq, tok uint64, kind noc.Kind, src, dst int32) {
		owner := src
		if kind == noc.Reply {
			owner = dst
		}
		switch prev, dup := carrier[tok]; {
		case src < 0 || src >= n || dst < 0 || dst >= n:
			r.Failf("%v %#x routes %d->%d outside the system", kind, seq, src, dst)
		case kind != noc.Request && kind != noc.Reply:
		case !awaited[tok] || tok>>32 != uint64(owner) || dup && (prev != seq || seq == 0):
			r.Failf("%v %#x carries token %#x its core does not await from it", kind, seq, tok)
		default:
			carrier[tok] = seq
		}
	}
	for _, slot := range s.replyWheel {
		for _, p := range slot {
			carry(0, p.token, noc.Reply, p.home, p.dst)
		}
	}
	head := map[uint64]noc.Flit{}
	s.net.Flits(func(f *noc.Flit) {
		h, seen := head[f.Seq]
		if f.Index >= f.Len || seen && (h.Len != f.Len || h.Kind != f.Kind || h.Token != f.Token || h.Src != f.Src || h.Dst != f.Dst) {
			r.Failf("flit %d of packet %#x disagrees with its packet", f.Index, f.Seq)
		}
		head[f.Seq] = *f
		carry(f.Seq, f.Token, f.Kind, f.Src, f.Dst)
	})
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
