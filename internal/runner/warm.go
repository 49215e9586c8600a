package runner

import (
	"fmt"
	"slices"
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
// the executor computes it once per Execute (a single-flight per
// prefix) and files it in the scale's checkpoint store, where later
// plans — or other machines — find it again.
//
// Dispatch is ready-first: a free worker skips runs whose prefix
// another worker is computing and takes the first run that has no
// warmup, a ready prefix or an unclaimed one (claiming it), so no
// worker parks on a prefix in flight while other work is pending. The
// in-memory checkpoint lives only until the last run of its prefix has
// restored from it; a plan's peak memory holds the prefixes in use,
// not every prefix it ever built.
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

// warmKey names one warm prefix: the WarmDigest of the runs forking
// from it and the cycle they fork at. The zero key is a run without a
// warmup.
type warmKey struct {
	digest string
	at     int64
}

// warmEntry is one prefix of an executing plan. The first run to need
// it computes the blob; the others block on the Once and share it. The
// other fields are guarded by Plan.wm.
type warmEntry struct {
	once sync.Once
	blob []byte
	// claimed is set when a picked run will compute the blob, ready
	// once it is computed, so forking from it no longer waits.
	claimed, ready bool
	// forks counts the runs still to start from the prefix.
	forks int
}

// prepareWarm computes every local run's warm key, once per run, and
// opens one entry per prefix counting the runs that fork from it. It
// replaces the entries of an earlier Execute, so a re-executed plan
// reads its prefixes from the store or recomputes them.
func (p *Plan) prepareWarm(local []int) []warmKey {
	keys := make([]warmKey, len(p.runs))
	warm := make(map[warmKey]*warmEntry)
	for _, i := range local {
		cfg := p.runs[i].Config
		if cfg.Warmup <= 0 {
			continue
		}
		k := warmKey{mustWarmDigest(cfg), cfg.Warmup}
		keys[i] = k
		e := warm[k]
		if e == nil {
			e = &warmEntry{}
			warm[k] = e
		}
		e.forks++
	}
	p.wm.Lock()
	p.warm = warm
	p.wm.Unlock()
	return keys
}

// next removes from pending, and returns, the run a free worker
// executes: the first in declaration order that does not wait on a
// prefix another worker is computing — one with no warmup, a ready
// prefix, or an unclaimed prefix, which the pick claims. Only when
// every pending run waits on a prefix in flight does it take the
// first, whose worker then parks until that prefix is ready. It
// reports false when nothing is pending.
func (p *Plan) next(pending *[]int, keys []warmKey) (int, bool) {
	p.wm.Lock()
	defer p.wm.Unlock()
	q := *pending
	if len(q) == 0 {
		return 0, false
	}
	pick := 0
	for j, i := range q {
		e := p.warm[keys[i]]
		if e == nil || e.ready || !e.claimed {
			if e != nil {
				e.claimed = true
			}
			pick = j
			break
		}
	}
	i := q[pick]
	*pending = slices.Delete(q, pick, pick+1)
	return i, true
}

// forked notes that one run of key has started, dropping the prefix
// (and its blob) after the last.
func (p *Plan) forked(key warmKey) {
	if key.digest == "" {
		return
	}
	p.wm.Lock()
	defer p.wm.Unlock()
	e := p.warm[key]
	e.forks--
	if e.forks == 0 {
		delete(p.warm, key)
	}
}

// startSim assembles the simulation for one run: restored from the
// nearest usable checkpoint when the scale has a store, cold otherwise.
// key is the run's warm prefix. The second return is the cycle the
// simulation starts at (0 when cold); the caller runs target-minus-start
// more cycles.
func (p *Plan) startSim(cfg sim.Config, r Run, key warmKey) (*sim.Sim, int64) {
	st := p.sc.Snapshots
	target := r.Cycles
	if cfg.Warmup > 0 {
		target += cfg.Warmup
	}
	if st != nil && r.Stride == 0 {
		if digest, err := CacheKey(cfg, 0); err == nil {
			if c, ok := st.Find(digest, target); ok && c >= cfg.Warmup {
				if ck, err := CacheKey(cfg, c); err == nil {
					if blob, ok := st.Get(digest, c, ck); ok {
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
	if key.digest == "" {
		return sim.New(cfg), 0
	}
	p.wm.Lock()
	e := p.warm[key]
	p.wm.Unlock()
	e.once.Do(func() {
		e.blob = p.warmBlob(cfg, key)
		p.wm.Lock()
		e.ready = true
		p.wm.Unlock()
	})
	s, err := sim.Restore(cfg, e.blob)
	if err != nil {
		panic(fmt.Sprintf("runner: warm-start fork at cycle %d: %v", key.at, err))
	}
	s.SetOrigin(key.digest, key.at)
	return s, key.at
}

// warmBlob produces the warm-prefix checkpoint for cfg at key.at: from
// the store when present, extending the longest stored prefix when
// only an earlier cycle is checkpointed, simulating from scratch
// otherwise. Fresh blobs are filed back best-effort; a store write
// failure never fails the run.
func (p *Plan) warmBlob(cfg sim.Config, key warmKey) []byte {
	st := p.sc.Snapshots
	warm := sim.NormalizeWarm(cfg)
	var ws *sim.Sim
	var storeKey string
	if st != nil {
		var err error
		if storeKey, err = CacheKey(warm, key.at); err != nil {
			panic(fmt.Sprintf("runner: warm prefix key: %v", err))
		}
		if blob, ok := st.Get(key.digest, key.at, storeKey); ok {
			if _, err := sim.Restore(warm, blob); err == nil {
				return blob
			}
			// An entry this codec cannot restore (an older format
			// version, say) is recomputed below and overwritten.
		}
		// Longest cached prefix strictly below the warmup point: restore
		// it and run only the remainder.
		if c, ok := st.Find(key.digest, key.at); ok && c > 0 && c < key.at {
			if pk, err := CacheKey(warm, c); err == nil {
				if blob, ok := st.Get(key.digest, c, pk); ok {
					if rs, err := sim.Restore(warm, blob); err == nil {
						ws = rs
					}
				}
			}
		}
	}
	if ws == nil {
		ws = sim.New(warm)
	}
	ws.Run(key.at - ws.Cycle())
	out := ws.Snapshot()
	if st != nil {
		_ = st.Put(key.digest, key.at, storeKey, out)
	}
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
