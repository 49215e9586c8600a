package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
	"nocsim/internal/topology"
	"nocsim/internal/workload"
)

// PlanSpec is the wire form of a Plan: the JSON a client submits to the
// nocd daemon (POST /v1/runs) and the payload Execute ships when a
// Scale carries a Remote executor. It mirrors the in-memory Plan/Scale
// pair declaratively — runs name presets, workload categories and With*
// options instead of carrying assembled state — so a submission is
// validated against the same single source of configuration truth
// (the runner presets) that local drivers use.
type PlanSpec struct {
	// Scale overrides the executing side's base scale; zero fields keep
	// the daemon's defaults.
	Scale ScaleSpec `json:"scale"`
	// Runs are the declared simulations, executed and reported in order.
	Runs []RunSpec `json:"runs"`
}

// ScaleSpec is the serializable subset of Scale a submission may set.
// Execution resources (Parallel) are deliberately absent: they belong
// to the executing process and — by the determinism contract — cannot
// change results.
type ScaleSpec struct {
	// Cycles is the default cycle budget for runs that set none.
	Cycles int64 `json:"cycles,omitempty"`
	// Epoch is the controller period; 0 derives Cycles/10 when Cycles
	// is set, else keeps the base scale's.
	Epoch int64 `json:"epoch,omitempty"`
	// Seed roots the conventional sc.Seed ^ workload.Seed seeding.
	Seed uint64 `json:"seed,omitempty"`
}

// RunSpec declares one simulation, in one of two forms. The declarative
// form names a preset ("baseline", "controlled", "static"), a workload
// category and option fields, and is resolved through the runner's
// preset builders. The raw form carries a fully assembled sim.Config as
// JSON (the shape Execute ships for remote plans) and is validated
// structurally before it may reach a simulator.
type RunSpec struct {
	// Label names the run in results; "" derives "runNN".
	Label string `json:"label"`
	// Cycles is this run's budget; 0 inherits the scale's.
	Cycles int64 `json:"cycles,omitempty"`

	// Preset selects the configuration builder: "baseline" (default),
	// "controlled", or "static" (with StaticRate).
	Preset string `json:"preset,omitempty"`
	// Workload is the §6.1 category name (H, M, L, HML, HM, HL, ML).
	Workload string `json:"workload,omitempty"`
	// Width and Height are the mesh dimensions; 0 means 4, and Height
	// defaults to Width.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Seed generates the workload; 0 uses the scale seed.
	Seed uint64 `json:"seed,omitempty"`
	// Router selects the fabric: "bless" (default), "buffered",
	// "hierring". RingGroup sets the hierring local-ring size.
	Router    string `json:"router,omitempty"`
	RingGroup int    `json:"ring_group,omitempty"`
	// Mapping selects the miss-home mapping: "xor" (default), "exp",
	// "pow"; MeanHops parameterises the locality mappings.
	Mapping  string  `json:"mapping,omitempty"`
	MeanHops float64 `json:"mean_hops,omitempty"`
	// StaticRate is the uniform throttle rate for the "static" preset.
	StaticRate float64 `json:"static_rate,omitempty"`

	// Config, when present, is a fully assembled sim.Config and the
	// declarative fields above must be empty.
	Config json.RawMessage `json:"config,omitempty"`
}

// ResolvedRun is one validated, assembled run of a PlanSpec: the
// executable configuration plus its content address.
type ResolvedRun struct {
	Label  string
	Config sim.Config
	Cycles int64
	// Key is the run's content address (CacheKey of Config+Cycles).
	Key string
}

// ScaleAt applies the spec's overrides to a base scale, mirroring the
// cmd/experiments flag semantics: setting cycles without an epoch
// derives epoch = cycles/10.
func (ps PlanSpec) ScaleAt(base Scale) Scale {
	sc := base
	if ps.Scale.Cycles > 0 {
		sc.Cycles = ps.Scale.Cycles
		if ps.Scale.Epoch == 0 {
			sc.Epoch = sc.Cycles / 10
		}
	}
	if ps.Scale.Epoch > 0 {
		sc.Epoch = ps.Scale.Epoch
	}
	if ps.Scale.Seed != 0 {
		sc.Seed = ps.Scale.Seed
	}
	return sc
}

// Resolve validates the whole spec against a base scale and returns the
// effective scale plus one assembled run per spec entry. Any invalid
// entry fails the whole spec, so a submission is accepted or rejected
// atomically before it can occupy a queue slot. The node budget is
// checked before any run is resolved.
func (ps PlanSpec) Resolve(base Scale) (Scale, []ResolvedRun, error) {
	sc := ps.ScaleAt(base)
	if len(ps.Runs) == 0 {
		return sc, nil, fmt.Errorf("runner: plan declares no runs")
	}
	total := 0
	for _, r := range ps.Runs {
		n, err := r.Nodes()
		if err != nil {
			return sc, nil, fmt.Errorf("runner: run %q: %v", r.Label, err)
		}
		if total += n; total > MaxPlanNodes {
			return sc, nil, fmt.Errorf("runner: plan exceeds the %d-node budget", MaxPlanNodes)
		}
	}
	out := make([]ResolvedRun, len(ps.Runs))
	for i, r := range ps.Runs {
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("run%02d", i)
		}
		cfg, cycles, err := r.Resolve(sc)
		if err != nil {
			return sc, nil, err
		}
		key, err := CacheKey(cfg, cycles)
		if err != nil {
			return sc, nil, err
		}
		out[i] = ResolvedRun{Label: label, Config: cfg, Cycles: cycles, Key: key}
	}
	return sc, out, nil
}

// Resolve assembles the spec into an executable configuration under sc.
func (r RunSpec) Resolve(sc Scale) (sim.Config, int64, error) {
	fail := func(format string, args ...any) (sim.Config, int64, error) {
		return sim.Config{}, 0, fmt.Errorf("runner: run %q: %s", r.Label, fmt.Sprintf(format, args...))
	}
	cycles := r.Cycles
	if cycles == 0 {
		cycles = sc.Cycles
	}
	if cycles <= 0 {
		return fail("no cycle budget (set runs[].cycles or scale.cycles)")
	}

	if len(r.Config) > 0 {
		if r.Preset != "" || r.Workload != "" || r.Router != "" || r.Mapping != "" {
			return fail("config and declarative fields are mutually exclusive")
		}
		var cfg sim.Config
		dec := json.NewDecoder(bytes.NewReader(r.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return fail("decoding config: %v", err)
		}
		if err := validateRawConfig(&cfg); err != nil {
			return fail("%v", err)
		}
		return cfg, cycles, nil
	}

	cat, ok := workload.CategoryByName(r.Workload)
	if !ok {
		return fail("unknown workload category %q", r.Workload)
	}
	width, height, err := r.mesh()
	if err != nil {
		return fail("%v", err)
	}
	seed := r.Seed
	if seed == 0 {
		seed = sc.Seed
	}
	w := workload.Generate(cat, width*height, seed)

	var opts []Option
	switch r.Router {
	case "", "bless":
	case "buffered":
		opts = append(opts, WithRouter(sim.Buffered))
	case "hierring":
		group := r.RingGroup
		if group == 0 {
			group = 8
		}
		if (width*height)%group != 0 {
			return fail("%d nodes not a multiple of ring group %d", width*height, group)
		}
		opts = append(opts, WithRingGroup(group))
	default:
		return fail("unknown router %q (bless, buffered, hierring)", r.Router)
	}
	switch r.Mapping {
	case "", "xor":
	case "exp":
		opts = append(opts, WithMapping(sim.ExpMap, r.MeanHops))
	case "pow":
		opts = append(opts, WithMapping(sim.PowMap, r.MeanHops))
	default:
		return fail("unknown mapping %q (xor, exp, pow)", r.Mapping)
	}

	var cfg sim.Config
	switch r.Preset {
	case "", "baseline":
		cfg = Baseline(w, width, height, sc, opts...)
	case "controlled":
		cfg = Controlled(w, width, height, sc, opts...)
	case "static":
		if r.StaticRate <= 0 || r.StaticRate > 1 {
			return fail("static preset needs static_rate in (0, 1], got %v", r.StaticRate)
		}
		opts = append(opts, WithStaticUniform(r.StaticRate))
		cfg = Baseline(w, width, height, sc, opts...)
	default:
		return fail("unknown preset %q (baseline, controlled, static)", r.Preset)
	}
	return cfg, cycles, nil
}

// validateRawConfig rejects the raw-config shapes that would panic the
// simulator's constructor, so a malformed submission becomes a 400
// instead of a failed daemon job, and the enum values the constructor
// does not know, which its default arms would otherwise run as the
// open baseline, BLESS, a mesh or the XOR mapping under a cache key of
// their own.
func validateRawConfig(cfg *sim.Config) error {
	if err := checkMesh(meshOf(*cfg)); err != nil {
		return err
	}
	switch {
	case cfg.Controller < sim.NoControl || cfg.Controller > sim.Distributed:
		return fmt.Errorf("unknown Controller %d", cfg.Controller)
	case cfg.Router < sim.BLESS || cfg.Router > sim.HierRing:
		return fmt.Errorf("unknown Router %d", cfg.Router)
	case cfg.Topo != topology.Mesh && cfg.Topo != topology.Torus:
		return fmt.Errorf("unknown Topo %d", cfg.Topo)
	case cfg.Mapping < sim.XORMap || cfg.Mapping > sim.GroupMap:
		return fmt.Errorf("unknown Mapping %d", cfg.Mapping)
	}
	n := nodesOf(*cfg)
	if cfg.Apps != nil && len(cfg.Apps) != n {
		return fmt.Errorf("config assigns %d apps to %d nodes", len(cfg.Apps), n)
	}
	if cfg.Router == sim.HierRing {
		group := cfg.RingGroup
		if group == 0 {
			group = 8
		}
		if group < 0 || n%group != 0 {
			return fmt.Errorf("%d nodes not a multiple of ring group %d", n, group)
		}
	}
	if cfg.Controller == sim.StaticPerNode && len(cfg.StaticRates) != n {
		return fmt.Errorf("StaticPerNode needs %d rates, got %d", n, len(cfg.StaticRates))
	}
	if cfg.Mapping == sim.GroupMap && len(cfg.Groups) != n {
		return fmt.Errorf("GroupMap needs %d group ids, got %d", n, len(cfg.Groups))
	}
	return nil
}

// maxMeshNodes caps a submitted mesh: the paper's largest system
// (PaperScale's MaxNodes).
const maxMeshNodes = 4096

// MaxPlanNodes caps the summed nodes of one submission, plan or sweep,
// so a small body cannot make the handler generate millions of app
// profiles: a full MaxSweepPoints grid of 4x4 meshes, or 16 meshes of
// the paper's largest system.
const MaxPlanNodes = 16 * maxMeshNodes

// Nodes returns the node count of the run's mesh, with the defaults
// Resolve applies, or an error when the mesh is out of range.
func (r RunSpec) Nodes() (int, error) {
	width, height, err := r.mesh()
	return width * height, err
}

// mesh returns the run's mesh dimensions, checked by checkMesh. A raw
// config is read for its dimensions alone.
func (r RunSpec) mesh() (width, height int, err error) {
	if len(r.Config) > 0 {
		var dims struct{ Width, Height int }
		if err := json.Unmarshal(r.Config, &dims); err != nil {
			return 0, 0, fmt.Errorf("decoding config: %v", err)
		}
		width, height = meshOf(sim.Config{Width: dims.Width, Height: dims.Height})
	} else {
		width, height = r.Width, r.Height
		if width == 0 {
			width = 4
		}
		if height == 0 {
			height = width
		}
	}
	return width, height, checkMesh(width, height)
}

// checkMesh rejects a mesh outside 1..maxMeshNodes nodes. Each
// dimension is bounded before the product is taken, so it cannot
// overflow.
func checkMesh(width, height int) error {
	if width < 1 || height < 1 || width > maxMeshNodes || height > maxMeshNodes || width*height > maxMeshNodes {
		return fmt.Errorf("mesh dimensions %dx%d out of range (1 to %d nodes)", width, height, maxMeshNodes)
	}
	return nil
}

// CacheKey returns a run's content address: the hex sha256 of the
// simulator's model version, the canonicalized configuration and the
// cycle budget. The model version retires every address of an older
// model once a change moves results (see sim.ModelVersion).
// Canonicalization zeroes the two config fields that cannot influence
// results — Workers (ignored by the simulator) and Obs (passive
// collectors) — and marshals the rest in struct declaration order. Two
// submissions describing the same simulation therefore collide on the
// same key regardless of phrasing or of where and how parallel they
// execute; equal keys plus the determinism contract mean equal
// counters, which is what makes a content-addressed result cache sound.
func CacheKey(cfg sim.Config, cycles int64) (string, error) {
	cfg.Workers = 0
	cfg.Obs = obs.Options{}
	b, err := json.Marshal(struct {
		Model  int        `json:"model"`
		Config sim.Config `json:"config"`
		Cycles int64      `json:"cycles"`
	}{sim.ModelVersion, cfg, cycles})
	if err != nil {
		return "", fmt.Errorf("runner: canonicalizing cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// DigestStrings digests an ordered list of strings — run content
// addresses, typically — into one hex sha256. Each element is
// length-prefixed so no concatenation of different lists can collide.
func DigestStrings(ss []string) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RemoteResult is one remotely executed run's report.
type RemoteResult struct {
	// Metrics is the run's full summary, exactly as a local Execute
	// would have produced it (the determinism contract makes the two
	// byte-identical).
	Metrics sim.Metrics `json:"metrics"`
	// ElapsedMS is the executing side's wall clock for the run; 0 when
	// the result came from its cache.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cached reports that the remote side served the run from its
	// content-addressed cache without simulating.
	Cached bool `json:"cached"`
}

// Remote executes assembled run specs somewhere else — a nocd daemon
// or fleet, through fleet.Client. Implementations return one result
// per spec run, in spec order.
type Remote interface {
	ExecuteSpecs(PlanSpec) ([]RemoteResult, error)
}
