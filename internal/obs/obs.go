// Package obs is the simulator's observability layer: deterministic,
// cycle-indexed collectors that watch a running simulation without
// perturbing it. Every figure in the paper is a dynamic phenomenon —
// congestion collapse, phase-driven IPF swings, the throttler's
// per-epoch reaction — and end-of-run aggregates cannot show *when*
// or *where* a run went wrong. The collectors here can.
//
// Five components:
//
//   - Sampler: snapshots interval deltas of the fabric counters plus
//     application-layer signals (IPC, IPF, throttle rate, starvation
//     rate) every N cycles, exportable as JSONL or CSV time series.
//   - EpochLedger: the congestion decision ledger — one record per
//     controller epoch holding every input (per-node IPF/MPKI, sigma)
//     and output (throttle rates, congested verdict) of the throttling
//     decision plus the window's network rates, as JSONL or CSV.
//   - Tracer: flit-lifecycle events (enqueue/inject/deflect/buffer/
//     eject/drop) for a deterministic sample of packets, held in
//     bounded per-node rings and exported as Chrome trace-event JSON
//     so a run opens in Perfetto with cycles as timestamps.
//   - Spatial: per-link traversal counts and per-node injection/
//     ejection/deflection/starvation grids, dumped as heatmap-ready
//     CSV tables.
//   - Manifest: a reproducibility record (config, seed, go version,
//     counter hash) written alongside every observed run.
//
// Determinism contract: every collector is indexed by simulated cycle,
// never the host clock (nocvet's wallclock rule holds here — only
// internal/runner and cmd/ may time runs, and the manifest's elapsed
// field is filled by them). Each simulation owns its collectors, so
// exports are byte-identical at any -parallel setting. When a collector is disabled its fabric-side pointer is
// nil and the hot path pays one predictable branch per event.
package obs

// Options configures the layer for one simulation. The zero value
// disables every collector.
type Options struct {
	// SampleInterval, when positive, records one interval sample every
	// that many cycles.
	SampleInterval int64
	// TraceSample, when positive, traces the lifecycle of roughly one
	// in every TraceSample packets (selected by a deterministic hash of
	// the packet sequence number; 1 traces everything).
	TraceSample uint64
	// TraceBudget bounds the total traced-event memory, split evenly
	// into per-node rings (older events of a node are overwritten).
	// 0 means 1<<18 events when tracing is enabled.
	TraceBudget int
	// Spatial enables the per-link and per-node grids.
	Spatial bool
	// Epochs enables the congestion decision ledger (one record per
	// controller epoch).
	Epochs bool
}

// Enabled reports whether any collector is configured.
func (o Options) Enabled() bool {
	return o.SampleInterval > 0 || o.TraceSample > 0 || o.Spatial || o.Epochs
}

// Meta describes the simulated system to the collectors.
type Meta struct {
	// Nodes is the node count; Width and Height the mesh dimensions
	// (ring fabrics pass Nodes x 1).
	Nodes, Width, Height int
	// ActiveNodes counts nodes running an application; rate signals
	// are normalized by it.
	ActiveNodes int
	// FlitsPerMiss converts miss counts to flit counts for IPF.
	FlitsPerMiss float64
}

// Observer owns one simulation's collectors. Fields are nil when the
// corresponding collector is disabled.
type Observer struct {
	Sampler *Sampler
	Tracer  *Tracer
	Spatial *Spatial
	Epochs  *EpochLedger
}

// New builds the collectors opt selects. It returns nil when opt
// disables everything, so callers can gate on the observer pointer.
func New(opt Options, m Meta) *Observer {
	if !opt.Enabled() {
		return nil
	}
	o := &Observer{}
	if opt.SampleInterval > 0 {
		o.Sampler = NewSampler(opt.SampleInterval, m)
	}
	if opt.TraceSample > 0 {
		budget := opt.TraceBudget
		if budget <= 0 {
			budget = 1 << 18
		}
		o.Tracer = NewTracer(m.Nodes, budget, opt.TraceSample)
	}
	if opt.Spatial {
		o.Spatial = NewSpatial(m)
	}
	if opt.Epochs {
		o.Epochs = NewEpochLedger(m)
	}
	return o
}

// Probe returns the fabric-facing slice of the observer: the two
// collectors fed from inside the per-cycle step loops. Safe on a nil
// observer (returns the zero Probe, which disables every hook).
func (o *Observer) Probe() Probe {
	if o == nil {
		return Probe{}
	}
	return Probe{Tracer: o.Tracer, Spatial: o.Spatial}
}

// Probe carries the hot-path collector pointers into a fabric. A nil
// field compiles the corresponding hooks down to one nil check per
// event; the zero Probe observes nothing.
type Probe struct {
	Tracer  *Tracer
	Spatial *Spatial
}

// mix64 is SplitMix64's output permutation: a cheap, deterministic
// avalanche used to turn structured packet sequence numbers (node ID
// in the high bits, a per-node counter in the low bits) into uniform
// sampling decisions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
