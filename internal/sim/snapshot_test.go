package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"nocsim/internal/app"
	"nocsim/internal/cache"
	"nocsim/internal/core"
	"nocsim/internal/cpu"
	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/obs"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
	"nocsim/internal/trace"
)

// TestSnapshotCoverageComplete is the codec's rot guard: it walks the
// type graph reachable from the assembled simulator and every concrete
// fabric, controller and mapper, and fails when any state struct has a
// field that is neither serialized nor explicitly waived. Adding a
// field to any of these types without deciding its snapshot fate fails
// here, not in a future bug hunt.
func TestSnapshotCoverageComplete(t *testing.T) {
	problems := snap.Verify(snap.VerifyOptions{
		PkgPrefix: "nocsim/",
		Opaque: []any{
			// Construction-time structure with no mutable simulation state.
			topology.Topology{},
			app.Profile{},
		},
	},
		Sim{}, Config{},
		bless.Fabric{}, buffered.Fabric{}, hierring.Fabric{},
		core.Policy{}, core.Controller{}, core.Static{},
		core.Distributed{}, core.Unaware{}, core.LatencyTriggered{},
		cache.XORInterleave{}, cache.Locality{}, cache.Grouped{}, cache.Fixed{},
		cpu.Core{}, trace.Generator{}, obs.Observer{}, noc.NIC{},
		noc.FlitPool{},
	)
	for _, p := range problems {
		t.Error(p)
	}
}

// snapCase is one byte-identity scenario: a fabric plus the knobs that
// light up its optional state (side buffers, adaptive load, random
// arbitration streams, VC credits, ring bridges). digest pins the
// sha256 of the straight run's blob at the byte-identity cycle, so a
// codec change that stays self-consistent still cannot silently change
// the format.
type snapCase struct {
	name   string
	cfg    Config
	digest string
}

func snapCases() []snapCase {
	apps := func(n int) []*app.Profile {
		out := make([]*app.Profile, n)
		hog := app.MustByName("mcf")
		light := app.MustByName("gromacs")
		for i := range out {
			if i%2 == 0 {
				out[i] = &hog
			} else {
				out[i] = &light
			}
		}
		// Leave a couple of idle nodes so core-presence encoding is
		// exercised.
		out[3] = nil
		out[n-1] = nil
		return out
	}
	base := func(router RouterKind) Config {
		cfg := Config{
			Width: 8, Height: 8,
			Router:     router,
			Apps:       apps(64),
			Controller: Central,
			Params:     core.DefaultParams(),
			Mapping:    ExpMap,
			Seed:       7,
			Writebacks: true,
			Obs: obs.Options{
				SampleInterval: 32,
				TraceSample:    4,
				TraceBudget:    1 << 12,
				Spatial:        true,
				Epochs:         true,
			},
			RecordEpochs: true,
		}
		cfg.Params.Epoch = 64
		return cfg
	}
	bl := base(BLESS)
	blMinBD := base(BLESS)
	blMinBD.SideBuffer = 4
	blMinBD.Adaptive = true
	blMinBD.RandomArb = true
	blMinBD.Controller = Distributed
	blMinBD.ControlTraffic = false
	buf := base(Buffered)
	buf.Controller = StaticUniform
	buf.StaticRate = 0.6
	hr := base(HierRing)
	hr.RingGroup = 8
	hr.Mapping = GroupMap
	hr.Groups = make([]int, 64)
	for i := range hr.Groups {
		hr.Groups[i] = i / 8
	}
	return []snapCase{
		{"bless", bl, "ef4c555f5cda3db3789605e77970850e9aa8a16e54e53544bd9a50c863d3e951"},
		{"bless-minbd-random-distributed", blMinBD, "2f55ef5406518d164017924096e0314faf01d8151bb1f6a94b345535c4291f1a"},
		{"buffered-static", buf, "cac0d12826ec5b3a4a2048b996e8a11828688c24d976c68d413160c2e543f64a"},
		{"hierring-groupmap", hr, "c2f3ea5e0d49827654ad355b1d622c08a99c00b5c846b9c1ab16b3b13b047f9b"},
	}
}

// obsExports concatenates every collector export so a single byte
// comparison covers the sampler series, the trace and the heatmaps.
func obsExports(t *testing.T, s *Sim) []byte {
	t.Helper()
	var b bytes.Buffer
	o := s.Obs()
	if o == nil {
		return nil
	}
	if o.Sampler != nil {
		if err := o.Sampler.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.Sampler.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	if o.Epochs != nil {
		if err := o.Epochs.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.Epochs.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	if o.Tracer != nil {
		if err := o.Tracer.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
	}
	if o.Spatial != nil {
		if err := o.Spatial.WriteNodeCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.Spatial.WriteLinkCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func countersHash(s *Sim) string {
	var retired int64
	for i := 0; i < s.Topology().Nodes(); i++ {
		if c := s.Core(i); c != nil {
			retired += c.Retired()
		}
	}
	return obs.HashCounters(s.Network().Stats(), retired)
}

// TestSnapshotByteIdentity is the acceptance criterion: for every
// fabric, a run snapshotted at cycle k and resumed to N must match a
// straight 0→N run byte for byte — counters hash, observability
// exports, and the full state blob itself, whose digest is pinned.
func TestSnapshotByteIdentity(t *testing.T) {
	const (
		total = 400
		k     = 193 // deliberately not epoch- or sample-aligned
	)
	for _, tc := range snapCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			straight := New(tc.cfg)
			straight.Run(total)
			wantBlob := straight.Snapshot()
			if sum := sha256.Sum256(wantBlob); hex.EncodeToString(sum[:]) != tc.digest {
				t.Errorf("blob digest %x, pinned %s", sum, tc.digest)
			}
			wantHash := countersHash(straight)
			wantObs := obsExports(t, straight)

			head := New(tc.cfg)
			head.Run(k)
			blob := head.Snapshot()

			resumed, err := Restore(tc.cfg, blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := resumed.Cycle(); got != k {
				t.Fatalf("restored cycle %d, want %d", got, k)
			}
			resumed.Run(total - k)

			if got := countersHash(resumed); got != wantHash {
				t.Errorf("counters hash diverged: %s != %s", got, wantHash)
			}
			if got := obsExports(t, resumed); !bytes.Equal(got, wantObs) {
				t.Errorf("obs exports diverged (%d vs %d bytes)", len(got), len(wantObs))
			}
			if got := resumed.Snapshot(); !bytes.Equal(got, wantBlob) {
				t.Errorf("state blob diverged (%d vs %d bytes)", len(got), len(wantBlob))
			}
		})
	}
}

// TestWarmStartFork covers the modulo-knob fork: a warmup run under
// NormalizeWarm(cfg), snapshotted at cfg.Warmup, restores into
// configurations that differ in measured knobs, and the fork is
// deterministic (two forks of the same blob replay identically).
func TestWarmStartFork(t *testing.T) {
	target := snapCases()[0].cfg // bless + Central + obs
	target.Warmup = 200
	norm := NormalizeWarm(target)
	if norm.Controller != NoControl || norm.Obs.Enabled() || norm.Warmup != 0 {
		t.Fatalf("NormalizeWarm left measured knobs set: %+v", norm)
	}

	warm := New(norm)
	warm.Run(200)
	blob := warm.Snapshot()

	runFork := func(cfg Config) (*Sim, string) {
		s, err := Restore(cfg, blob)
		if err != nil {
			t.Fatalf("Restore fork: %v", err)
		}
		if s.Cycle() != 200 {
			t.Fatalf("fork cycle %d, want 200", s.Cycle())
		}
		s.Run(300)
		h := countersHash(s)
		return s, h
	}

	s1, h1 := runFork(target)
	_, h2 := runFork(target)
	if h1 != h2 {
		t.Errorf("fork not deterministic: %s != %s", h1, h2)
	}
	if len(s1.Decisions()) == 0 {
		t.Error("forked Central run recorded no controller decisions")
	}
	if o := s1.Obs(); o == nil || o.Sampler == nil {
		t.Fatal("forked run lost its collectors")
	} else {
		samples := o.Sampler.Samples()
		if len(samples) == 0 {
			t.Fatal("forked run recorded no samples")
		}
		// The first window after the fork must not fold warmup totals in:
		// its cycle delta is bounded by the sampling interval.
		if first := samples[0]; first.Net.Cycles > target.Obs.SampleInterval {
			t.Errorf("first post-fork window spans %d cycles, want <= %d (sampler not primed at the fork)",
				first.Net.Cycles, target.Obs.SampleInterval)
		}
	}

	// A fork into a different measured knob diverges from the first.
	other := target
	other.Controller = StaticUniform
	other.StaticRate = 0.3
	_, h3 := runFork(other)
	if h3 == h1 {
		t.Error("static-throttled fork unexpectedly matched the Central fork")
	}

	// Restore guards: a fork must land exactly on Config.Warmup, and
	// only uncontrolled blobs may fork.
	bad := target
	bad.Warmup = 100
	if _, err := Restore(bad, blob); err == nil {
		t.Error("Restore accepted a fork at the wrong Warmup cycle")
	}
	ctrl := target
	ctrl.Warmup = 0
	ctrlSim := New(ctrl)
	ctrlSim.Run(64)
	ctrlBlob := ctrlSim.Snapshot()
	forked := ctrl
	forked.Controller = Distributed
	forked.Warmup = 64
	if _, err := Restore(forked, ctrlBlob); err == nil {
		t.Error("Restore accepted a fork from a controlled run")
	}
}

// TestRestoreRejectsWrongFabric guards the router-kind check.
func TestRestoreRejectsWrongFabric(t *testing.T) {
	cfg := snapCases()[0].cfg
	s := New(cfg)
	s.Run(10)
	blob := s.Snapshot()
	wrong := cfg
	wrong.Router = Buffered
	if _, err := Restore(wrong, blob); err == nil {
		t.Fatal("Restore accepted a blob from a different fabric")
	}
}

// fuzzCases are the 4x4 configurations FuzzSimRestore restores into:
// one per fabric, with the controllers, collectors and optional fabric
// state of the byte-identity cases. A small L1 keeps the blobs short,
// so mutations land on core, fabric and controller state rather than
// on cache contents.
func fuzzCases() []Config {
	var out []Config
	for _, tc := range snapCases() {
		cfg := tc.cfg
		cfg.Width, cfg.Height = 4, 4
		cfg.Apps = cfg.Apps[:16]
		cfg.Apps[3], cfg.Apps[15] = nil, nil
		cfg.L1.SizeBytes = 4 << 10
		if cfg.Groups != nil {
			cfg.Groups = cfg.Groups[:16]
		}
		if cfg.Router != BLESS || cfg.Controller != Central {
			cfg.Obs = obs.Options{}
		}
		out = append(out, cfg)
	}
	return out
}

// headCorrupted returns a mid-run blob of cfg whose first core's window
// head reads 0x7fffffff: a decodable blob whose state indexes outside
// the window.
func headCorrupted(t testing.TB, cfg Config) []byte {
	s := New(cfg)
	s.Run(200)
	blob := s.Snapshot()
	w := &snap.Writer{}
	snap.Encode(w, s.Core(0)) // a Core's encoding starts with head
	off := bytes.Index(blob, w.Bytes())
	if off < 0 {
		t.Fatal("core 0 not found in its blob")
	}
	out := append([]byte(nil), blob...)
	copy(out[off:], []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	return out
}

// rankCorrupted returns a mid-run blob of cfg in which the first set of
// core 0's L1 has two ways of equal LRU rank (a 4-way line word keeps
// its rank in bits 2-3): a decodable blob whose set has no LRU way for
// its next miss to evict.
func rankCorrupted(t testing.TB, cfg Config) []byte {
	s := New(cfg)
	s.Run(200)
	blob := s.Snapshot()
	w := &snap.Writer{}
	snap.Encode(w, s.l1s[0]) // an L1's encoding starts with its line count and words
	off := bytes.Index(blob, w.Bytes())
	if off < 0 {
		t.Fatal("L1 0 not found in its blob")
	}
	out := append([]byte(nil), blob...)
	lines := out[off+4:]
	way0, way1 := binary.LittleEndian.Uint64(lines), binary.LittleEndian.Uint64(lines[8:])
	binary.LittleEndian.PutUint64(lines, way0&^0xc|way1&0xc)
	return out
}

// seqCorrupted returns a mid-run blob of cfg whose node-0 NIC packet
// counter reads 2^39: a decodable blob whose counter sits past the
// restore bound, where the Seq layout's headroom ends.
func seqCorrupted(t testing.TB, cfg Config) []byte {
	s := New(cfg)
	s.Run(200)
	blob := s.Snapshot()
	w := &snap.Writer{}
	snap.Encode(w, s.Network().NIC(0)) // a NIC's encoding starts with its packet counter
	off := bytes.Index(blob, w.Bytes())
	if off < 0 {
		t.Fatal("NIC 0 not found in its blob")
	}
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(out[off:], 1<<(noc.SeqCounterBits-1))
	return out
}

// FuzzSimRestore feeds arbitrary bytes to Restore. The bar: an error,
// or a Sim that runs 64 cycles without panicking, and no allocation
// beyond O(blob) on top of New(cfg).
func FuzzSimRestore(f *testing.F) {
	cases := fuzzCases()
	for i, cfg := range cases {
		s := New(cfg)
		s.Run(200)
		blob := s.Snapshot()
		if _, err := Restore(cfg, blob); err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(uint8(i), blob)
	}
	bad := headCorrupted(f, cases[0])
	if _, err := Restore(cases[0], bad); err == nil {
		f.Fatal("a core head outside the window restored without error")
	}
	f.Add(uint8(0), bad)
	bad = rankCorrupted(f, cases[1])
	if _, err := Restore(cases[1], bad); err == nil {
		f.Fatal("an L1 set without an LRU way restored without error")
	}
	f.Add(uint8(1), bad)
	bad = seqCorrupted(f, cases[0])
	if _, err := Restore(cases[0], bad); err == nil {
		f.Fatal("a NIC packet counter at 2^39 restored without error")
	}
	f.Add(uint8(0), bad)
	base := make([]uint64, len(cases))
	for i, cfg := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(cfg)
		runtime.ReadMemStats(&after)
		base[i] = after.TotalAlloc - before.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		i := int(which) % len(cases)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Restore(cases[i], data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, base[i]+uint64(16*len(data)+1<<20); got > limit {
			t.Fatalf("restore of a %d-byte blob allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err == nil {
			s.Run(64)
		}
	})
}
