package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// specScale is the base scale the spec tests resolve against.
func specScale() Scale {
	return Scale{Cycles: 10_000, Epoch: 1_000, Seed: 42}
}

// TestSpecResolveMatchesPresets pins the single-source-of-truth
// property: a declarative RunSpec assembles exactly the config a local
// driver would build through the preset helpers.
func TestSpecResolveMatchesPresets(t *testing.T) {
	sc := specScale()
	spec := PlanSpec{Runs: []RunSpec{{
		Label: "a", Preset: "controlled", Workload: "HML", Width: 4, Height: 4,
	}, {
		Label: "b", Workload: "H", Width: 8, Height: 8,
		Router: "buffered", Mapping: "exp", MeanHops: 2.5,
	}}}
	_, runs, err := spec.Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}

	cat, _ := workload.CategoryByName("HML")
	wantA := Controlled(workload.Generate(cat, 16, sc.Seed), 4, 4, sc)
	if !reflect.DeepEqual(runs[0].Config, wantA) {
		t.Error("declarative controlled run differs from Controlled preset")
	}
	if runs[0].Cycles != sc.Cycles {
		t.Errorf("run a cycles = %d, want the scale's %d", runs[0].Cycles, sc.Cycles)
	}

	catH, _ := workload.CategoryByName("H")
	wantB := Baseline(workload.Generate(catH, 64, sc.Seed), 8, 8, sc,
		WithRouter(sim.Buffered), WithMapping(sim.ExpMap, 2.5))
	if !reflect.DeepEqual(runs[1].Config, wantB) {
		t.Error("declarative option run differs from Baseline preset with options")
	}
}

// TestSpecRawConfigRoundTrip pins the wire path Execute uses for remote
// plans: a marshaled config resolves back to itself.
func TestSpecRawConfigRoundTrip(t *testing.T) {
	sc := specScale()
	cat, _ := workload.CategoryByName("M")
	cfg := Controlled(workload.Generate(cat, 16, sc.Seed), 4, 4, sc)
	raw, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := PlanSpec{Runs: []RunSpec{{Label: "raw", Config: raw}}}.Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs[0].Config, cfg) {
		t.Fatal("raw config did not round-trip through RunSpec")
	}
}

// TestSpecValidation pins the reject-before-queue contract: each broken
// spec fails atomically with a runner:-prefixed error.
func TestSpecValidation(t *testing.T) {
	sc := specScale()
	for name, spec := range map[string]PlanSpec{
		"no runs":          {},
		"bad workload":     {Runs: []RunSpec{{Workload: "nope"}}},
		"bad router":       {Runs: []RunSpec{{Workload: "H", Router: "warp"}}},
		"bad mapping":      {Runs: []RunSpec{{Workload: "H", Mapping: "fold"}}},
		"bad preset":       {Runs: []RunSpec{{Workload: "H", Preset: "magic"}}},
		"ring indivisible": {Runs: []RunSpec{{Workload: "H", Router: "hierring", RingGroup: 7}}},
		"static no rate":   {Runs: []RunSpec{{Workload: "H", Preset: "static"}}},
		"both forms": {Runs: []RunSpec{{
			Workload: "H", Config: json.RawMessage(`{}`),
		}}},
		"unknown config field": {Runs: []RunSpec{{
			Config: json.RawMessage(`{"NoSuchField": 1}`),
		}}},
		"config app mismatch": {Runs: []RunSpec{{
			Config: json.RawMessage(`{"Width": 4, "Height": 4, "Apps": [null]}`),
		}}},
		"no cycles": {Scale: ScaleSpec{}, Runs: []RunSpec{{Workload: "H"}}},
		"mesh over cap": {Runs: []RunSpec{{
			Workload: "H", Width: 100_000, Height: 100_000,
		}}},
		"mesh product overflows": {Runs: []RunSpec{{
			Workload: "H", Width: 1 << 32, Height: 1 << 32,
		}}},
		"config mesh over cap": {Runs: []RunSpec{{
			Config: json.RawMessage(`{"Width": 100000, "Height": 100000}`),
		}}},
		"config mesh product overflows": {Runs: []RunSpec{{
			Config: json.RawMessage(`{"Width": 4294967296, "Height": 4294967296}`),
		}}},
		"config default width over cap": {Runs: []RunSpec{{
			Config: json.RawMessage(`{"Height": 2048}`),
		}}},
	} {
		base := sc
		if name == "no cycles" {
			base = Scale{Seed: 42}
		}
		if _, _, err := spec.Resolve(base); err == nil {
			t.Errorf("%s: Resolve accepted an invalid spec", name)
		} else if !strings.HasPrefix(err.Error(), "runner: ") {
			t.Errorf("%s: error %q lacks the runner: prefix", name, err)
		}
	}
}

// TestPlanNodeBudget pins the per-submission node budget: it is
// checked before any run is resolved, so a 4096-point sweep of 64x64
// meshes of an unknown workload fails on the budget, not the workload,
// and a plan at the budget gets through to the workload check.
func TestPlanNodeBudget(t *testing.T) {
	over := SweepSpec{Base: RunSpec{Workload: "nope", Width: 64}, Axes: []Axis{{Name: "seed"}}}
	for i := 1; i <= MaxSweepPoints; i++ {
		over.Axes[0].Values = append(over.Axes[0].Values, json.RawMessage(strconv.Itoa(i)))
	}
	points, err := over.Points(MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (PlanSpec{Runs: points}).Resolve(specScale()); err == nil || !strings.Contains(err.Error(), "node budget") {
		t.Errorf("4096 64x64 points: err %v, want the node budget", err)
	}
	at := PlanSpec{Runs: points[:MaxPlanNodes/(64*64)]}
	if _, _, err := at.Resolve(specScale()); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("plan at the budget: err %v, want the unknown workload", err)
	}
}

// TestSpecScaleOverrides pins the cycles/epoch derivation mirroring the
// cmd/experiments flags: setting cycles alone derives epoch = cycles/10.
func TestSpecScaleOverrides(t *testing.T) {
	base := specScale()
	sc := PlanSpec{Scale: ScaleSpec{Cycles: 50_000}}.ScaleAt(base)
	if sc.Cycles != 50_000 || sc.Epoch != 5_000 {
		t.Errorf("derived scale = %d/%d, want 50000/5000", sc.Cycles, sc.Epoch)
	}
	sc = PlanSpec{Scale: ScaleSpec{Cycles: 50_000, Epoch: 2_000, Seed: 7}}.ScaleAt(base)
	if sc.Cycles != 50_000 || sc.Epoch != 2_000 || sc.Seed != 7 {
		t.Errorf("explicit scale = %+v, want 50000/2000 seed 7", sc)
	}
}

// TestCacheKeyInvariance is the soundness pin of the content-addressed
// cache: execution-resource and observability fields cannot move the
// key, while anything that can move results must.
func TestCacheKeyInvariance(t *testing.T) {
	sc := specScale()
	cat, _ := workload.CategoryByName("H")
	cfg := Baseline(workload.Generate(cat, 16, sc.Seed), 4, 4, sc)

	base, err := CacheKey(cfg, sc.Cycles)
	if err != nil {
		t.Fatal(err)
	}

	varied := cfg
	varied.Workers = 8
	varied.Obs = obs.Options{SampleInterval: 100, TraceSample: 2, Spatial: true}
	if k, _ := CacheKey(varied, sc.Cycles); k != base {
		t.Error("Workers/Obs changed the cache key; resource fields must be canonicalized away")
	}

	reseeded := Baseline(workload.Generate(cat, 16, sc.Seed+1), 4, 4, sc)
	if k, _ := CacheKey(reseeded, sc.Cycles); k == base {
		t.Error("different workload seed produced the same cache key")
	}
	if k, _ := CacheKey(cfg, sc.Cycles+1); k == base {
		t.Error("different cycle budget produced the same cache key")
	}
}

// TestCacheKeyFormatPinned pins the content addresses of one fixed
// preset configuration to literal hex digests. Every nocd cache entry
// and checkpoint-store key is derived from CacheKey and WarmDigest, so
// any change to the canonical config encoding — a field added, removed,
// renamed or reordered in sim.Config, a new canonicalization rule, or a
// sim.ModelVersion bump — orphans every stored result. Such a change
// must be deliberate: update these literals in the same commit and say
// so.
func TestCacheKeyFormatPinned(t *testing.T) {
	sc := specScale()
	cat, _ := workload.CategoryByName("HML")
	cfg := Controlled(workload.Generate(cat, 16, sc.Seed), 4, 4, sc)

	const (
		wantKey    = "f2b45545b77ba293c597b7d77a0f6628a9ec0e10c98cc863a0452c1e5043b2af"
		wantDigest = "6a39f6d396ffd521d9ca09463025698e5441cbb2b20808b7d6e08f1935eed55d"
	)
	if k, err := CacheKey(cfg, sc.Cycles); err != nil || k != wantKey {
		t.Errorf("CacheKey = %s (err %v), pinned %s", k, err, wantKey)
	}
	if d, err := WarmDigest(cfg); err != nil || d != wantDigest {
		t.Errorf("WarmDigest = %s (err %v), pinned %s", d, err, wantDigest)
	}
}

// TestPlanSpecJSONRoundTrip pins the wire format: a spec survives
// marshal/unmarshal and resolves to the same runs and keys.
func TestPlanSpecJSONRoundTrip(t *testing.T) {
	sc := specScale()
	in := PlanSpec{
		Scale: ScaleSpec{Cycles: 4_000, Epoch: 500, Seed: 9},
		Runs: []RunSpec{
			{Label: "x", Preset: "controlled", Workload: "HL", Width: 4},
			{Label: "y", Workload: "H", Router: "hierring", RingGroup: 8},
		},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out PlanSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	_, inRuns, err := in.Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}
	_, outRuns, err := out.Resolve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inRuns, outRuns) {
		t.Fatal("resolved runs differ after a JSON round trip")
	}
}

// TestDigestStrings pins the plan-key digest: order matters, and
// length prefixing keeps reassociated lists distinct.
func TestDigestStrings(t *testing.T) {
	a := DigestStrings([]string{"ab", "c"})
	if a != DigestStrings([]string{"ab", "c"}) {
		t.Error("digest is not deterministic")
	}
	if a == DigestStrings([]string{"c", "ab"}) {
		t.Error("digest ignores order")
	}
	if a == DigestStrings([]string{"a", "bc"}) {
		t.Error("digest collides across element boundaries")
	}
}

// TestRunHooks pins the executor's Start/Cancel semantics: Start sees
// the live simulation before the first cycle, a never-firing Cancel's
// window split cannot change results, and a firing Cancel stops early.
func TestRunHooks(t *testing.T) {
	sc := specScale()
	sc.Cycles = 3_000
	cat, _ := workload.CategoryByName("H")
	cfg := Baseline(workload.Generate(cat, 16, sc.Seed), 4, 4, sc)

	plain := NewPlan(sc)
	plain.Add("plain", cfg, sc.Cycles)
	want := plain.Execute()[0]

	var startCycle int64 = -1
	hooked := NewPlan(sc)
	hooked.AddRun(Run{
		Label: "hooked", Config: cfg, Cycles: sc.Cycles,
		Start:       func(s *sim.Sim) { startCycle = s.Metrics().Cycles },
		Cancel:      func() bool { return false },
		CancelEvery: 700, // deliberately not a divisor of Cycles
	})
	got := hooked.Execute()[0]
	if startCycle != 0 {
		t.Errorf("Start observed cycle %d, want 0 (before the first cycle)", startCycle)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("windowed execution under a never-firing Cancel changed results")
	}

	fired := NewPlan(sc)
	fired.AddRun(Run{
		Label: "cancelled", Config: cfg, Cycles: sc.Cycles,
		Cancel:      func() bool { return true },
		CancelEvery: 700,
	})
	if m := fired.Execute()[0]; m.Cycles != 0 {
		t.Errorf("immediately-cancelled run simulated %d cycles, want 0", m.Cycles)
	}
}

// FuzzPlanSpec feeds arbitrary bytes through the daemon's decoding and
// validation of POST /v1/runs and POST /v1/sweeps bodies: every input
// is rejected with an error or resolves to runs within the node cap
// and the node budget, and none panics.
func FuzzPlanSpec(f *testing.F) {
	f.Add([]byte(`{"runs":[{"workload":"H","width":100000,"height":100000}]}`))
	f.Add([]byte(`{"runs":[{"workload":"H","width":4294967296,"height":4294967296}]}`))
	f.Add([]byte(`{"runs":[{"label":"raw","config":{"Width":8,"Height":8}}]}`))
	f.Add([]byte(`{"scale":{"cycles":2000},"base":{"workload":"H"},"axes":[{"name":"size","values":[4,8]},{"name":"router","values":["bless","hierring"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps PlanSpec
		if decodeStrict(data, &ps) == nil {
			checkResolved(t, ps)
		}
		var ss SweepSpec
		if decodeStrict(data, &ss) == nil {
			if points, err := ss.Points(MaxSweepPoints); err == nil {
				checkResolved(t, PlanSpec{Scale: ss.Scale, Runs: points})
			}
		}
	})
}

// decodeStrict decodes one JSON value the way the daemon's submit
// handlers do.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkResolved resolves ps at the default scale and fails on any
// accepted run whose mesh is outside 1..maxMeshNodes nodes, or on
// accepted runs over MaxPlanNodes in total.
func checkResolved(t *testing.T, ps PlanSpec) {
	_, runs, err := ps.Resolve(DefaultScale())
	if err != nil {
		return
	}
	total := 0
	for _, r := range runs {
		n := nodesOf(r.Config)
		if n < 1 || n > maxMeshNodes {
			t.Errorf("run %q resolved to %d nodes", r.Label, n)
		}
		total += n
	}
	if total > MaxPlanNodes {
		t.Errorf("plan resolved to %d nodes, over the %d budget", total, MaxPlanNodes)
	}
}
