package runner

import (
	"fmt"
	"strconv"
	"sync"

	"nocsim/internal/sim"
	"nocsim/internal/snap"
)

// Warm-start execution: runs whose Config.Warmup is positive simulate
// their first Warmup cycles under the measurement-neutral prefix
// configuration (sim.NormalizeWarm — no controller, no throttling, no
// collectors), snapshot there, and fork the measured configuration from
// the checkpoint. Because NormalizeWarm strips exactly the knobs a
// sweep varies, every point of the sweep forks from the same prefix:
// the executor computes it once per plan (a per-plan single-flight) and
// files it in the scale's checkpoint store, where later plans — or
// other machines — find it again.
//
// Two lookup levels compose in startSim, cheapest first:
//
//  1. same-config resume: a checkpoint of this exact configuration
//     (CacheKey digest) at or before the target cycle — the "extend
//     this run" path. Only for unhooked stride-less runs, since a
//     resumed prefix would skip Stride-window Observe calls.
//  2. warm fork: the NormalizeWarm prefix checkpoint at exactly
//     Config.Warmup, extended from the longest stored prefix below it
//     when the exact cycle is absent.
//
// Both restores are byte-exact (the snapshot byte-identity tests pin
// this), so results never depend on which path executed a run; a
// checkpoint store is purely a wall-clock optimization and its absence
// or corruption degrades to cold simulation.

// WarmDigest returns the content address of a configuration's warmup
// prefix: the CacheKey of its NormalizeWarm image with a zero cycle
// budget, so it hashes sim.ModelVersion too. Every configuration that
// differs only in measured knobs — controller kind and parameters,
// static rates, collectors, the Warmup cycle itself — maps to the same
// digest and therefore shares checkpoints.
func WarmDigest(cfg sim.Config) (string, error) {
	return CacheKey(sim.NormalizeWarm(cfg), 0)
}

// warmEntry is one per-plan single-flight slot: the first run needing
// this (prefix digest, warmup cycle) computes the blob, everyone else
// blocks on the Once and shares it.
type warmEntry struct {
	once sync.Once
	blob []byte
}

// warmSlot returns the plan's single-flight entry for one warm prefix.
func (p *Plan) warmSlot(digest string, warmup int64) *warmEntry {
	p.wm.Lock()
	defer p.wm.Unlock()
	if p.warm == nil {
		p.warm = make(map[string]*warmEntry)
	}
	k := digest + ":" + strconv.FormatInt(warmup, 10)
	e := p.warm[k]
	if e == nil {
		e = &warmEntry{}
		p.warm[k] = e
	}
	return e
}

// startSim assembles the simulation for one run: restored from the
// nearest usable checkpoint when the scale has a store, cold otherwise.
// The second return is the cycle the simulation starts at (0 when
// cold); the caller runs target-minus-start more cycles.
func (p *Plan) startSim(cfg sim.Config, r Run) (*sim.Sim, int64) {
	st := p.sc.Snapshots
	target := r.Cycles
	if cfg.Warmup > 0 {
		target += cfg.Warmup
	}
	if st != nil && r.Stride == 0 {
		if digest, err := CacheKey(cfg, 0); err == nil {
			if c, ok := st.Find(digest, target); ok && c >= cfg.Warmup {
				if key, err := CacheKey(cfg, c); err == nil {
					if blob, ok := st.Get(digest, c, key); ok {
						if s, err := sim.Restore(cfg, blob); err == nil {
							s.SetOrigin(digest, c)
							return s, c
						}
						// A structurally incompatible checkpoint (different
						// collector shapes, say) degrades to the cold path.
					}
				}
			}
		}
	}
	if cfg.Warmup > 0 {
		digest := mustWarmDigest(cfg)
		e := p.warmSlot(digest, cfg.Warmup)
		e.once.Do(func() { e.blob = p.warmBlob(cfg) })
		s, err := sim.Restore(cfg, e.blob)
		if err != nil {
			panic(fmt.Sprintf("runner: warm-start fork at cycle %d: %v", cfg.Warmup, err))
		}
		s.SetOrigin(digest, cfg.Warmup)
		return s, cfg.Warmup
	}
	return sim.New(cfg), 0
}

// warmBlob produces the warm-prefix checkpoint for cfg at cfg.Warmup:
// from the store when present, extending the longest stored prefix when
// only an earlier cycle is checkpointed, simulating from scratch
// otherwise. Fresh blobs are filed back best-effort; a store write
// failure never fails the run.
func (p *Plan) warmBlob(cfg sim.Config) []byte {
	st := p.sc.Snapshots
	digest := mustWarmDigest(cfg)
	warm := sim.NormalizeWarm(cfg)

	if st != nil {
		key, err := CacheKey(sim.NormalizeWarm(cfg), cfg.Warmup)
		if err != nil {
			panic(fmt.Sprintf("runner: warm prefix key: %v", err))
		}
		if blob, ok := st.Get(digest, cfg.Warmup, key); ok {
			if _, err := sim.Restore(warm, blob); err == nil {
				return blob
			}
			// An entry this codec cannot restore (an older format
			// version, say) is recomputed below and overwritten.
		}
		// Longest cached prefix strictly below the warmup point: restore,
		// run the remainder, checkpoint the extension.
		if c, ok := st.Find(digest, cfg.Warmup); ok && c > 0 && c < cfg.Warmup {
			if pk, err := CacheKey(sim.NormalizeWarm(cfg), c); err == nil {
				if blob, ok := st.Get(digest, c, pk); ok {
					if ws, err := sim.Restore(warm, blob); err == nil {
						ws.Run(cfg.Warmup - c)
						out := ws.Snapshot()
						_ = st.Put(digest, cfg.Warmup, key, out)
						return out
					}
				}
			}
		}
		ws := sim.New(warm)
		ws.Run(cfg.Warmup)
		out := ws.Snapshot()
		_ = st.Put(digest, cfg.Warmup, key, out)
		return out
	}
	ws := sim.New(warm)
	ws.Run(cfg.Warmup)
	out := ws.Snapshot()
	return out
}

func mustWarmDigest(cfg sim.Config) string {
	d, err := WarmDigest(cfg)
	if err != nil {
		panic(fmt.Sprintf("runner: warm prefix digest: %v", err))
	}
	return d
}

// Checkpoint snapshots a live simulation into the store under its full
// configuration digest, so a later plan can resume (extend) the run
// instead of recomputing it. Service layers call it from a Run's
// Observe hook; a nil store or a write failure is a no-op.
func Checkpoint(st *snap.Store, cfg sim.Config, s *sim.Sim) error {
	if st == nil {
		return nil
	}
	digest, err := CacheKey(cfg, 0)
	if err != nil {
		return err
	}
	key, err := CacheKey(cfg, s.Cycle())
	if err != nil {
		return err
	}
	return st.Put(digest, s.Cycle(), key, s.Snapshot())
}
