package sim

import (
	"testing"

	"nocsim/internal/obs"
)

// Golden regression tests: the simulator is fully deterministic, so one
// known-good metric snapshot per configuration guards every layer
// (trace generation, caches, fabric arbitration, controller decisions)
// against silent behavioural drift. If an intentional modelling change
// shifts these numbers, re-baseline them in the same commit and say why
// in the commit message.
//
// The assertions use wide-enough-to-be-meaningful exact counters (flit
// totals) rather than floating-point summaries.

type golden struct {
	name          string
	cfg           Config
	cycles        int64
	flitsInjected int64
	retiredTotal  int64
}

func goldenCases() []golden {
	p := fastParams()
	return []golden{
		{
			name:          "bless-open-mcf",
			cfg:           Config{Apps: uniformApps(16, "mcf"), Params: p, Seed: 1234},
			cycles:        30_000,
			flitsInjected: 224_083,
			retiredTotal:  205_249,
		},
		{
			name: "bless-central-H",
			cfg: Config{Apps: uniformApps(16, "mcf"), Controller: Central,
				Params: p, Seed: 1234},
			cycles:        30_000,
			flitsInjected: 219_897,
			retiredTotal:  236_964,
		},
		{
			name: "buffered-mcf",
			cfg: Config{Apps: uniformApps(16, "mcf"), Router: Buffered,
				Params: p, Seed: 1234},
			cycles:        30_000,
			flitsInjected: 286_081,
			retiredTotal:  268_320,
		},
		{
			name: "hierring-mcf",
			cfg: Config{Apps: uniformApps(16, "mcf"), Router: HierRing,
				Params: p, Seed: 1234},
			cycles:        30_000,
			flitsInjected: 61_218,
			retiredTotal:  55_553,
		},
		{
			name: "buffered-central-mcf",
			cfg: Config{Apps: uniformApps(16, "mcf"), Router: Buffered,
				Controller: Central, Params: p, Seed: 1234},
			cycles:        30_000,
			flitsInjected: 270_727,
			retiredTotal:  284_720,
		},
	}
}

func TestGoldenCounters(t *testing.T) {
	// The exact pinned counters. A legitimate modelling change may move
	// them: re-baseline in the same commit and explain why.
	for _, g := range goldenCases() {
		s := New(g.cfg)
		s.Run(g.cycles)
		m := s.Metrics()
		if m.Net.FlitsInjected != g.flitsInjected {
			t.Errorf("%s: flitsInjected = %d, golden %d", g.name, m.Net.FlitsInjected, g.flitsInjected)
		}
		var retired int64
		for _, r := range m.Retired {
			retired += r
		}
		if retired != g.retiredTotal {
			t.Errorf("%s: retiredTotal = %d, golden %d", g.name, retired, g.retiredTotal)
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	// The golden property this suite relies on: the same configuration
	// always produces bit-identical counters across repeated runs in
	// one process.
	for _, g := range goldenCases() {
		var first Metrics
		for trial := 0; trial < 2; trial++ {
			s := New(g.cfg)
			s.Run(g.cycles)
			m := s.Metrics()
			if trial == 0 {
				first = m
				continue
			}
			if m.Net.FlitsInjected != first.Net.FlitsInjected {
				t.Errorf("%s: flit count varies across runs: %d vs %d",
					g.name, m.Net.FlitsInjected, first.Net.FlitsInjected)
			}
			var sum, firstSum int64
			for i := range m.Retired {
				sum += m.Retired[i]
				firstSum += first.Retired[i]
			}
			if sum != firstSum {
				t.Errorf("%s: retired count varies across runs", g.name)
			}
		}
	}
}

func TestGoldenPlausibility(t *testing.T) {
	// Beyond determinism, pin the counters to coarse physical bounds so
	// a unit-scale regression (e.g. double-counting flits) cannot hide.
	for _, g := range goldenCases() {
		s := New(g.cfg)
		s.Run(g.cycles)
		m := s.Metrics()
		// Flit conservation at any instant: ejected <= injected.
		if m.Net.FlitsEjected > m.Net.FlitsInjected {
			t.Errorf("%s: ejected %d > injected %d", g.name, m.Net.FlitsEjected, m.Net.FlitsInjected)
		}
		// Each miss costs ReqFlits+RepFlits = 4 flits; injected flits
		// cannot exceed that (local misses send none).
		if m.Net.FlitsInjected > m.Misses*4 {
			t.Errorf("%s: %d flits for %d misses (> 4/miss)", g.name, m.Net.FlitsInjected, m.Misses)
		}
		// IPC per node bounded by issue width.
		for i, ipc := range m.IPC {
			if ipc > 3.0 {
				t.Errorf("%s: node %d IPC %.2f exceeds issue width", g.name, i, ipc)
			}
		}
		// mcf at 16 copies is congested: some starvation must register.
		if m.StarvationRate == 0 {
			t.Errorf("%s: zero starvation in a congested run", g.name)
		}
	}
}

// TestModelVersionPinned ties the golden counters to ModelVersion. It
// pins each goldenCases run's counters hash (runner.CountersHash: the
// fabric counters plus total retired instructions and misses, the hash
// every cache entry carries) next to the version those hashes belong
// to. A change that moves the counters without bumping ModelVersion
// fails here, before stale cache entries could be served under the old
// version's addresses.
func TestModelVersionPinned(t *testing.T) {
	const pinnedVersion = 1
	pinned := map[string]string{
		"bless-open-mcf":       "049a07ff1ddf0c1e2d3ced5bd553087f",
		"bless-central-H":      "742e198a8244ce723fc91b4a901f09b0",
		"buffered-mcf":         "6b4c05942fef55582a6524b98e330d48",
		"hierring-mcf":         "965bf80d00d5ba40b03fd7d7b1771df0",
		"buffered-central-mcf": "dcabaeb2d71b68c1ea24178fd39884c0",
	}
	if ModelVersion != pinnedVersion {
		t.Fatalf("ModelVersion is %d but the hashes below are pinned for %d: re-pin them for the new version", ModelVersion, pinnedVersion)
	}
	for _, g := range goldenCases() {
		s := New(g.cfg)
		s.Run(g.cycles)
		m := s.Metrics()
		var retired int64
		for _, r := range m.Retired {
			retired += r
		}
		if got := obs.HashCounters(m.Net, retired, m.Misses); got != pinned[g.name] {
			t.Errorf("%s: counters hash %s, pinned %s for ModelVersion %d: a change that moves results must bump sim.ModelVersion and re-pin these hashes",
				g.name, got, pinned[g.name], pinnedVersion)
		}
	}
}
