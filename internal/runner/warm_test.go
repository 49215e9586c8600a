package runner

import (
	"reflect"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/snap"
	"nocsim/internal/workload"
)

func warmScale(t *testing.T, capBytes int64) Scale {
	t.Helper()
	st, err := snap.NewStore(t.TempDir(), capBytes)
	if err != nil {
		t.Fatal(err)
	}
	sc := DefaultScale()
	sc.Cycles = 3000
	sc.Epoch = 300
	sc.Parallel = 2
	sc.Snapshots = st
	sc.Warmup = 1000
	return sc
}

func warmWorkload(sc Scale) workload.Workload {
	cat, _ := workload.CategoryByName("HM")
	return workload.Generate(cat, 16, sc.Seed+11)
}

// TestWarmSweepSharesPrefix checks the sweep contract: every point of a
// static-rate sweep forks from one shared warmup simulation, computed
// once and filed in the store, and a second plan reuses it from disk.
func TestWarmSweepSharesPrefix(t *testing.T) {
	sc := warmScale(t, 0)
	w := warmWorkload(sc)
	rates := []float64{0.2, 0.5, 0.8}

	addSweep := func(plan *Plan) {
		for _, rate := range rates {
			plan.Add("warm/static", Baseline(w, 4, 4, sc, WithStaticUniform(rate)), sc.Cycles)
		}
	}
	plan := NewPlan(sc)
	addSweep(plan)
	ms := plan.Execute()
	for i, m := range ms {
		if want := sc.Warmup + sc.Cycles; m.Cycles != want {
			t.Errorf("run %d covered %d cycles, want %d (warmup + measured)", i, m.Cycles, want)
		}
	}
	st := sc.Snapshots.Stats()
	if st.Writes != 1 {
		t.Errorf("sweep wrote %d warm prefixes, want exactly 1 shared", st.Writes)
	}

	// A fresh plan (new single-flight) over the same prefix hits the
	// store instead of re-simulating the warmup.
	plan2 := NewPlan(sc)
	addSweep(plan2)
	ms2 := plan2.Execute()
	st = sc.Snapshots.Stats()
	if st.Hits == 0 {
		t.Error("second plan never hit the checkpoint store")
	}
	if st.Writes != 1 {
		t.Errorf("second plan wrote %d more prefixes, want reuse", st.Writes-1)
	}
	for i := range ms {
		if !reflect.DeepEqual(ms[i], ms2[i]) {
			t.Errorf("run %d: store-warmed metrics differ between plans", i)
		}
	}
}

// TestWarmStoreIsInvisible pins the soundness property: metrics are
// identical with a cold store, a primed store, a prefix-extended store,
// and no store at all.
func TestWarmStoreIsInvisible(t *testing.T) {
	base := warmScale(t, 0)
	w := warmWorkload(base)
	exec := func(sc Scale) []sim.Metrics {
		plan := NewPlan(sc)
		plan.Add("inv/central", Controlled(w, 4, 4, sc), sc.Cycles)
		plan.Add("inv/static", Baseline(w, 4, 4, sc, WithStaticUniform(0.4)), sc.Cycles)
		return plan.Execute()
	}

	want := func() []sim.Metrics {
		sc := base
		sc.Snapshots = nil
		return exec(sc)
	}()

	// Cold store: computes and files the prefix.
	got := exec(base)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d: cold-store metrics differ from storeless", i)
		}
	}

	// Prefix extension: a shorter warmup checkpoint exists (filed by a
	// half-warmup plan — the warm digest is Warmup-invariant), so the
	// full prefix is built by resuming it, not from scratch.
	ext := base
	ext.Snapshots, _ = snap.NewStore(t.TempDir(), 0)
	half := ext
	half.Warmup = base.Warmup / 2
	exec(half)
	if st := ext.Snapshots.Stats(); st.Writes != 1 {
		t.Fatalf("half-warmup plan wrote %d prefixes, want 1", st.Writes)
	}
	got = exec(ext)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d: prefix-extended metrics differ from storeless", i)
		}
	}
	if st := ext.Snapshots.Stats(); st.Writes != 2 {
		t.Errorf("extension wrote %d total prefixes, want 2 (half + full)", st.Writes)
	}
}

// TestSameConfigResume checks the extend path: a checkpoint of the full
// configuration lets a longer run of the same config resume instead of
// recomputing, with metrics identical to a cold run of the full length.
func TestSameConfigResume(t *testing.T) {
	st, err := snap.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := DefaultScale()
	sc.Cycles = 2000
	sc.Epoch = 200
	sc.Parallel = 1
	sc.Snapshots = st
	sc.Obs = obs.Options{SampleInterval: 250}
	w := warmWorkload(sc)
	cfg := Controlled(w, 4, 4, sc)

	// First run: simulate and checkpoint the final state.
	plan := NewPlan(sc)
	plan.AddRun(Run{
		Label: "resume/head", Config: cfg, Cycles: sc.Cycles,
		Observe: func(s *sim.Sim) {
			if err := Checkpoint(st, cfg, s); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		},
	})
	plan.Execute()

	// Extended run: must restore the checkpoint and only step the tail.
	before := st.Stats()
	longer := sc.Cycles + 1000
	plan2 := NewPlan(sc)
	plan2.Add("resume/extended", cfg, longer)
	got := plan2.Execute()[0]
	if after := st.Stats(); after.Hits <= before.Hits {
		t.Error("extended run never hit the checkpoint store")
	}

	// Reference: the same length cold, no store.
	cold := sc
	cold.Snapshots = nil
	plan3 := NewPlan(cold)
	plan3.Add("resume/cold", cfg, longer)
	want := plan3.Execute()[0]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed metrics differ from cold run:\n got %+v\nwant %+v", got, want)
	}
}

// TestWarmStaleStoreEntry checks that a stored warm prefix the codec
// cannot restore — here the header of an older format version, filed
// under the right key — is recomputed cold and overwritten, with
// metrics identical to an empty store.
func TestWarmStaleStoreEntry(t *testing.T) {
	sc := warmScale(t, 0)
	w := warmWorkload(sc)
	cfg := Baseline(w, 4, 4, sc, WithStaticUniform(0.4))
	exec := func(sc Scale) []sim.Metrics {
		plan := NewPlan(sc)
		plan.Add("stale/static", cfg, sc.Cycles)
		return plan.Execute()
	}
	empty := sc
	empty.Snapshots, _ = snap.NewStore(t.TempDir(), 0)
	want := exec(empty)

	digest := mustWarmDigest(cfg)
	key, err := CacheKey(sim.NormalizeWarm(cfg), cfg.Warmup)
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte{'N', 'O', 'C', 'S', 'N', 'A', 'P', '1', 0, 0, 0, 0}
	if err := sc.Snapshots.Put(digest, cfg.Warmup, key, stale); err != nil {
		t.Fatal(err)
	}
	if got := exec(sc); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics over a stale prefix differ from an empty store:\n%+v\n%+v", got, want)
	}
	blob, ok := sc.Snapshots.Get(digest, cfg.Warmup, key)
	if !ok {
		t.Fatal("recomputed prefix not filed back")
	}
	if _, err := sim.Restore(sim.NormalizeWarm(cfg), blob); err != nil {
		t.Errorf("stale prefix not overwritten: %v", err)
	}
}
