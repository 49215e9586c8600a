package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"nocsim/internal/rng"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
)

// grid256_HML_warm: every op executes one runner Plan over a 16x16 HML
// grid — routers {buffered, hierring} x presets {baseline, controlled,
// static 0.1, static 0.3} — at the sweep CLI's defaults (Parallel =
// GOMAXPROCS) with a shared warm-up prefix and a fresh checkpoint
// store. The seed changes every op, so each plan simulates and
// snapshots its two prefixes and restores every point.
const (
	gridSize   = 16
	gridWarmup = 4_000
	gridCycles = 4_000
	gridEpoch  = 1_000
)

var gridPresets = []struct {
	preset string
	rate   float64
}{{"baseline", 0}, {"controlled", 0}, {"static", 0.1}, {"static", 0.3}}

var gridRouters = []string{"buffered", "hierring"}

type grid struct {
	base
	seed uint64
	dir  string
	// samples are the points re-run storeless after the timed phase.
	samples []gridSample
	// traced-phase records; startups are the non-leader points' start-up
	// times, from which the codec probe's restore time is taken away
	pointMS, prefixMS, startups, overheadMS []float64
	prefixes, plans                         int64
	throttled                               int64
	// kept is the latest traced plan's store, probed after the timed phase
	kept *keptPlan
}

type keptPlan struct {
	op  int
	dir string
	st  *snap.Store
	cfg sim.Config
}

type gridSample struct {
	op   int
	run  runner.Run
	sc   runner.Scale
	hash string
}

func newGrid(seed uint64, dir string) bench {
	return &grid{base: newBase(), seed: seed, dir: dir}
}

func (g *grid) setup() error {
	// The warm-up op uses an index no timed op reaches.
	_, err := g.plan(-1)
	return err
}

// scale is op i's execution scale: the CLI defaults plus a warm-up
// prefix and a fresh checkpoint store.
func (g *grid) scale(st *snap.Store) runner.Scale {
	sc := runner.DefaultScale()
	sc.Cycles, sc.Epoch, sc.Warmup, sc.Seed = gridCycles, gridEpoch, gridWarmup, g.seed
	sc.Snapshots = st
	return sc
}

// points declares op i's grid, presets outermost so the two pool
// workers start on different routers and build both prefixes at once.
func (g *grid) points(i int, sc runner.Scale) ([]runner.Run, error) {
	var runs []runner.Run
	for _, p := range gridPresets {
		for _, router := range gridRouters {
			rs := runner.RunSpec{
				Label:  fmt.Sprintf("grid/%d/%s/%s/%g", i, router, p.preset, p.rate),
				Preset: p.preset, StaticRate: p.rate, Router: router, Workload: "HML",
				Width: gridSize, Height: gridSize, Seed: opSeed(g.seed, "grid", i),
			}
			cfg, cycles, err := rs.Resolve(sc)
			if err != nil {
				return nil, err
			}
			runs = append(runs, runner.Run{Label: rs.Label, Config: cfg, Cycles: cycles})
		}
	}
	return runs, nil
}

// plan executes op i and returns its points' counters hashes.
func (g *grid) plan(i int) ([]string, error) {
	dir := filepath.Join(g.dir, fmt.Sprintf("plan%d", i))
	traced := g.tr.on
	if !traced {
		defer os.RemoveAll(dir)
	} else if g.kept != nil {
		// A traced plan's store outlives it until the next traced plan,
		// so the codec probe after the timed phase has a checkpoint.
		os.RemoveAll(g.kept.dir)
		g.kept = nil
	}
	st, err := snap.NewStore(dir, 0)
	if err != nil {
		return nil, err
	}
	sc := g.scale(st)
	runs, err := g.points(i, sc)
	if err != nil {
		return nil, err
	}
	starts := make([]float64, len(runs))
	ends := make([]float64, len(runs))
	throttled := make([]int64, len(runs))
	plan := runner.NewPlan(sc)
	t0 := now()
	for k, r := range runs {
		k := k
		if traced {
			// Hooks run on the pool's goroutines, each writing only its
			// own run's slots, read after Execute joins the pool.
			r.Start = func(*sim.Sim) { starts[k] = since(t0) }
			r.Observe = func(s *sim.Sim) {
				ends[k] = since(t0)
				for _, d := range s.Decisions() {
					throttled[k] += int64(d.ThrottledNodes)
				}
			}
		}
		plan.AddRun(r)
	}
	sp := g.tr.begin(i, "Plan.Execute")
	ms := plan.Execute()
	g.tr.end(sp)
	wall := since(t0)
	stats := plan.Stats()

	hashes := make([]string, len(runs))
	var nodes int64
	for k, m := range ms {
		hashes[k] = countersHash(m)
		nodes = int64(m.Nodes)
		if m.Cycles != gridWarmup+gridCycles {
			return hashes, fmt.Errorf("point %s ran to cycle %d, want %d", runs[k].Label, m.Cycles, gridWarmup+gridCycles)
		}
	}
	ss := st.Stats()
	if i >= 0 {
		g.ops++
		g.base.points += int64(len(runs))
		for _, m := range ms {
			g.addMetrics(m, int64(gridCycles)*nodes)
		}
		// one prefix simulated per checkpoint the plan wrote
		g.nodeCycles += ss.Writes * gridWarmup * nodes
		g.blobBytes += ss.Bytes
		pick := int(rng.New(g.seed).Split("grid-sample").SplitIndex(i).Intn(len(runs)))
		cold := runs[pick]
		cold.Start, cold.Observe = nil, nil
		g.samples = append(g.samples, gridSample{op: i, run: cold, sc: sc, hash: hashes[pick]})
	}
	if traced {
		g.plans++
		g.prefixes += ss.Writes
		g.tracePlan(runs, stats, starts, ends, wall, sc)
		g.kept = &keptPlan{op: i, dir: dir, st: st, cfg: runs[0].Config}
		for _, n := range throttled {
			g.throttled += n
		}
	}
	return hashes, nil
}

func (g *grid) op(i int) error {
	hashes, err := g.plan(i)
	if err != nil {
		return err
	}
	if want, ok := pinned[wGrid][pinKey{g.seed, i}]; ok && want != runner.DigestStrings(hashes) {
		return fmt.Errorf("plan digest %s, pinned %s", runner.DigestStrings(hashes), want)
	}
	return nil
}

// tracePlan derives the runner layer numbers of one plan. Each point's
// start-up (store lookup, prefix build or wait, restore) is its elapsed
// time minus its stepping time; the first point of each prefix to start
// paid for building it.
func (g *grid) tracePlan(runs []runner.Run, stats []runner.Stat, starts, ends []float64, wall float64, sc runner.Scale) {
	leader := map[string]int{}
	for k, r := range runs {
		d, _ := runner.WarmDigest(r.Config)
		if j, ok := leader[d]; !ok || starts[k] < starts[j] {
			leader[d] = k
		}
	}
	var sum float64
	for k, r := range runs {
		el := float64(stats[k].Elapsed) / 1e6
		sum += el
		g.pointMS = append(g.pointMS, el)
		startup := el - (ends[k]-starts[k])*1e3
		d, _ := runner.WarmDigest(r.Config)
		if leader[d] == k {
			g.prefixMS = append(g.prefixMS, startup)
		} else {
			g.startups = append(g.startups, startup)
		}
	}
	pool := sc.Parallel
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	g.overheadMS = append(g.overheadMS, wall*1e3-sum/float64(min(len(runs), pool)))
}

// probeCodec times the checkpoint store and codec on a plan's first
// prefix: Store.Get, sim.Restore, Sim.Snapshot and Store.Put. It
// returns the restore time in ms. It runs after the timed phase, so
// the tracing overhead holds none of its work.
func (g *grid) probeCodec(i int, st *snap.Store, cfg sim.Config) float64 {
	digest, err := runner.WarmDigest(cfg)
	if err != nil {
		return 0
	}
	sp := g.tr.begin(i, "runner.CacheKey")
	key, err := runner.CacheKey(sim.NormalizeWarm(cfg), cfg.Warmup)
	g.tr.end(sp)
	if err != nil {
		return 0
	}
	sp = g.tr.begin(i, "Store.Get")
	blob, ok := st.Get(digest, cfg.Warmup, key)
	g.tr.end(sp)
	if !ok {
		return 0
	}
	t := now()
	sp = g.tr.begin(i, "sim.Restore")
	s, err := sim.Restore(cfg, blob)
	g.tr.end(sp)
	restoreMS := since(t) * 1e3
	if err != nil {
		return 0
	}
	sp = g.tr.begin(i, "Sim.Snapshot")
	out := s.Snapshot()
	g.tr.end(sp)
	s.Close()
	sp = g.tr.begin(i, "Store.Put")
	_ = st.Put(digest, cfg.Warmup, key, out)
	g.tr.end(sp)
	return restoreMS
}

// verify re-executes each plan's sampled point alone with no checkpoint
// store and one worker, and requires the plan's counters exactly. The
// lone point still warm-forks its own prefix, so this checks the store,
// the single-flight and the pool order, not the codec: the pinned
// digests of the default seed catch codec drift.
func (g *grid) verify() []int {
	var bad []int
	for _, s := range g.samples {
		sc := s.sc
		sc.Snapshots, sc.Parallel = nil, 1
		p := runner.NewPlan(sc)
		p.AddRun(s.run)
		got := countersHash(p.Execute()[0])
		if got != s.hash {
			fmt.Printf("check grid op %d %s: cold hash %s, warm-forked %s\n", s.op, s.run.Label, got, s.hash)
			bad = append(bad, s.op)
		}
	}
	return bad
}

func (g *grid) report(r *report, w work, traced bool) {
	r.counts["checked_points"] = float64(len(g.samples))
	if !traced {
		return
	}
	restoreMS := 0.0
	if g.kept != nil {
		// The probe records its spans like the timed ops did.
		g.tr.on = true
		restoreMS = g.probeCodec(g.kept.op, g.kept.st, g.kept.cfg)
		g.tr.on = false
	}
	var waitMS []float64
	for _, s := range g.startups {
		waitMS = append(waitMS, max(0, s-restoreMS))
	}
	st := g.tr.stats()
	r.layer["snap.snapshot_ms"] = st["Sim.Snapshot"].meanMS()
	r.layer["snap.restore_ms"] = st["sim.Restore"].meanMS()
	r.layer["snap.store_put_ms"] = st["Store.Put"].meanMS()
	r.layer["snap.store_get_ms"] = st["Store.Get"].meanMS()
	r.layer["runner.cache_key_us"] = st["runner.CacheKey"].meanMS() * 1e3
	if g.plans > 0 {
		r.layer["snap.blob_mb"] = float64(w.blobBytes) / 1e6 / float64(max(1, g.prefixes))
		r.layer["runner.prefixes_per_plan"] = float64(g.prefixes) / float64(g.plans)
	}
	r.layer["runner.prefix_ms"] = mean(g.prefixMS)
	r.layer["runner.prefix_wait_ms"] = mean(waitMS)
	r.layer["runner.point_ms"] = mean(g.pointMS)
	r.layer["runner.overhead_ms"] = mean(g.overheadMS)
	r.layer["core.throttled_node_epochs"] = float64(g.throttled)
}

func (g *grid) close() { os.RemoveAll(g.dir) }
