// Package trace generates the synthetic per-application instruction
// streams that stand in for the paper's PinPoints-captured SPEC CPU2006
// traces (see DESIGN.md §1 for why the substitution is faithful).
//
// Each generator emits an infinite, deterministic instruction stream
// (compute or memory-reference) whose L1 hit/miss behaviour is set by
// construction through a fixed address layout, which cache.L1 relies on:
//
//   - "hit" references revisit HotBlocks consecutive hot blocks starting
//     at AddrBase;
//   - "miss" references walk consecutive blocks from StreamBase
//     (AddrBase + 1 GiB), each referenced once, in order, and never
//     again, so a miss intent always misses;
//   - hot blocks can be evicted. Stream blocks share the hot blocks'
//     sets, and when enough of them land in a hot block's set between
//     two of its references, LRU evicts it and its next reference
//     misses. Realised misses therefore exceed miss intents wherever
//     the miss probability is high: in matlab's intense phase every
//     instruction is a memory reference and 87% of them are stream
//     blocks, and at seed 1 with the default L1 29 hot references in
//     2M instructions miss.
//
// The miss probability is calibrated so that the application's
// cumulative IPF (instructions per flit) matches its Table 1 mean, and
// it is modulated by a two-phase Markov process to reproduce the
// temporal intensity variation of Fig. 6 and the per-window IPF
// variance.
//
// Crucially, the stream is a pure function of the seed: network
// congestion changes when an instruction issues, never which instruction
// comes next — the same closed-loop property the paper's trace-replay
// simulator has.
package trace

import (
	"math"

	"nocsim/internal/app"
	"nocsim/internal/rng"
)

// Instr is one instruction of the stream.
type Instr struct {
	// IsMem marks a memory reference; Addr is its byte address.
	IsMem bool
	// IsStore marks a memory reference as a write. Stores dirty the L1
	// line they touch; evicting a dirty line later emits a writeback
	// packet (when the simulator's writeback modelling is enabled).
	IsStore bool
	Addr    uint64
}

// Config parameterises a generator.
type Config struct {
	// Profile is the application to model.
	Profile app.Profile
	// FlitsPerMiss is the total flit cost of one L1 miss (request packet
	// + reply packet); 0 means 5 (1 request flit + 4 data flits).
	FlitsPerMiss int
	// BlockBytes is the cache block size; 0 means 32.
	BlockBytes int
	// HotBlocks is the number of consecutive hot blocks that hit
	// references revisit; 0 means 64.
	HotBlocks int
	// PhaseDwellInsns is the mean phase length in instructions; 0 means
	// 50000.
	PhaseDwellInsns int
	// StoreFrac is the fraction of memory references that are writes;
	// 0 disables store marking (the paper's traffic model needs only
	// request/reply traffic; writebacks are this reproduction's
	// extension and off by default).
	StoreFrac float64
	// AddrBase offsets this stream's address space; give each core a
	// disjoint region.
	AddrBase uint64
	// Seed makes the stream deterministic.
	Seed uint64
}

// Generator produces the instruction stream. Not safe for concurrent
// use; create one per core.
type Generator struct {
	cfg     Config
	r       *rng.Source
	memFrac float64
	// pMiss[phase] is the per-memory-reference miss-intent probability.
	pMiss [2]float64
	phase int
	dwell int64

	hot    []uint64
	stream uint64 // StreamBase

	insns  int64
	misses int64
}

// New builds a generator calibrated to cfg.Profile.
func New(cfg Config) *Generator {
	if cfg.FlitsPerMiss <= 0 {
		cfg.FlitsPerMiss = 5
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 32
	}
	if cfg.HotBlocks <= 0 {
		cfg.HotBlocks = 64
	}
	if cfg.PhaseDwellInsns <= 0 {
		cfg.PhaseDwellInsns = 50000
	}
	g := &Generator{cfg: cfg, r: rng.New(cfg.Seed ^ 0x7ace)}

	// Calibration: cumulative misses-per-instruction target.
	mpi := 1 / (cfg.Profile.IPFMean * float64(cfg.FlitsPerMiss))
	if mpi > 1 {
		mpi = 1 // one memory reference (hence miss) per instruction max
	}
	// Phase spread gamma from the IPF coefficient of variation: window
	// IPF values are mean/(1±gamma), giving a per-window variance of
	// (mean * gamma/(1-gamma^2))^2 while preserving the cumulative mean.
	gamma := 0.0
	if cfg.Profile.IPFVar > 0 && cfg.Profile.IPFMean > 0 {
		v := math.Sqrt(cfg.Profile.IPFVar) / cfg.Profile.IPFMean
		gamma = (math.Sqrt(1+4*v*v) - 1) / (2 * v)
	}
	if gamma > 0.8 {
		gamma = 0.8
	}
	mpiIntense := mpi * (1 + gamma)
	mpiCalm := mpi * (1 - gamma)
	if mpiIntense > 1 {
		// Keep the cumulative mean by shifting the excess to the calm
		// phase (possible only for extremely intensive profiles).
		mpiCalm += mpiIntense - 1
		mpiIntense = 1
	}

	// Memory fraction: enough headroom that miss-intent probability
	// stays below 1 in the intense phase.
	g.memFrac = 1.25 * mpiIntense
	if g.memFrac < 0.3 {
		g.memFrac = 0.3
	}
	if g.memFrac > 1 {
		g.memFrac = 1
	}
	g.pMiss[0] = mpiIntense / g.memFrac
	g.pMiss[1] = mpiCalm / g.memFrac
	for i := range g.pMiss {
		if g.pMiss[i] > 1 {
			g.pMiss[i] = 1
		}
	}

	// Address layout: hot blocks at AddrBase, the stream 1 GiB above
	// them so it never reaches a hot block.
	bb := uint64(cfg.BlockBytes)
	g.hot = make([]uint64, cfg.HotBlocks)
	for i := range g.hot {
		g.hot[i] = cfg.AddrBase + uint64(i)*bb
	}
	g.stream = cfg.AddrBase + 1<<30
	g.phase = g.r.Intn(2)
	g.dwell = g.drawDwell()
	return g
}

// drawDwell samples a phase length: the configured mean with ±50%
// uniform jitter. Uniform (rather than exponential) dwells keep the
// long-run phase occupancy tightly balanced, so the cumulative IPF
// converges to the calibration target quickly while per-window intensity
// still varies (Fig. 6).
func (g *Generator) drawDwell() int64 {
	d := int64(float64(g.cfg.PhaseDwellInsns) * (0.5 + g.r.Float64()))
	if d < 1 {
		d = 1
	}
	return d
}

// Next returns the next instruction in the stream.
func (g *Generator) Next() Instr {
	g.insns++
	g.dwell--
	if g.dwell <= 0 {
		g.phase = 1 - g.phase
		g.dwell = g.drawDwell()
	}
	if !g.r.Bool(g.memFrac) {
		return Instr{}
	}
	store := g.cfg.StoreFrac > 0 && g.r.Bool(g.cfg.StoreFrac)
	if g.r.Bool(g.pMiss[g.phase]) {
		addr := g.stream + uint64(g.misses)*uint64(g.cfg.BlockBytes)
		g.misses++
		return Instr{IsMem: true, IsStore: store, Addr: addr}
	}
	return Instr{IsMem: true, IsStore: store, Addr: g.hot[g.r.Intn(len(g.hot))]}
}

// HotAddresses returns the hot blocks' addresses, consecutive from
// AddrBase; the simulator pre-warms the L1 with these so measurement
// starts without cold-miss noise.
func (g *Generator) HotAddresses() []uint64 { return g.hot }

// StreamBase returns the address of the first stream block; stream
// block j is at StreamBase + j*BlockBytes.
func (g *Generator) StreamBase() uint64 { return g.stream }

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() int64 { return g.insns }

// MissIntents returns the number of miss-intent references generated,
// which is also the number of stream blocks emitted. The realised L1
// miss count exceeds it by the hot references whose block the stream
// had evicted (see the package doc).
func (g *Generator) MissIntents() int64 { return g.misses }

// TargetIPF returns the cumulative IPF the stream is calibrated to.
func (g *Generator) TargetIPF() float64 { return g.cfg.Profile.IPFMean }

// ExpectedIPF returns the IPF implied by the generated stream so far
// (instructions / (miss intents * flits-per-miss)); it converges to
// TargetIPF.
func (g *Generator) ExpectedIPF() float64 {
	if g.misses == 0 {
		return math.Inf(1)
	}
	return float64(g.insns) / (float64(g.misses) * float64(g.cfg.FlitsPerMiss))
}

// Phase returns the current phase index (0 = intense, 1 = calm); useful
// for Fig. 6-style intensity traces.
func (g *Generator) Phase() int { return g.phase }

// MemFraction returns the calibrated fraction of memory instructions.
func (g *Generator) MemFraction() float64 { return g.memFrac }

// PhaseMissProb returns the per-memory-reference miss probability of
// each phase (intense, calm).
func (g *Generator) PhaseMissProb() (intense, calm float64) {
	return g.pMiss[0], g.pMiss[1]
}
