package runner

import (
	"runtime"

	"nocsim/internal/core"
	"nocsim/internal/obs"
	"nocsim/internal/snap"
)

// Scale sets the cost/fidelity trade-off of every experiment.
type Scale struct {
	// Cycles is the simulated length of each run.
	Cycles int64
	// Epoch is the controller period (the paper uses Cycles/100).
	Epoch int64
	// Workloads is the batch size for the scatter/category figures
	// (the paper uses 700 16-core + 175 64-core workloads).
	Workloads int
	// MaxNodes caps the scaling experiments (the paper goes to 4096).
	MaxNodes int
	// Workers is ignored: every simulation steps on one goroutine, and
	// Parallel is the only parallelism. The field stays so existing
	// callers still compile.
	Workers int
	// Parallel bounds how many independent simulations a Plan runs at
	// once (inter-sim parallelism); 0 means GOMAXPROCS.
	Parallel int
	// Seed roots all randomness.
	Seed uint64
	// Obs configures the observability collectors for every run whose
	// config leaves them unset; the zero value observes nothing.
	Obs obs.Options
	// ObsDir, when non-empty, makes the executor export every observed
	// run's collectors and manifest into this directory.
	ObsDir string
	// Progress, when non-nil, receives a live line per completed run on
	// every Plan executed at this scale (wall-clock diagnostics only;
	// results are unaffected).
	Progress *Progress
	// Remote, when non-nil, ships every plain run (no Observe/Stride/
	// Start/Cancel hook, no ObsDir export) to a remote executor — the
	// nocd daemon — instead of simulating in-process; hooked runs still
	// execute locally. The determinism contract makes the two paths
	// return identical metrics.
	Remote Remote
	// Snapshots, when non-nil, is the checkpoint store the executor
	// consults before simulating: runs resume from a same-config
	// checkpoint at or before their target cycle, and warm-start runs
	// (Config.Warmup > 0) fork from — or compute and file — the shared
	// NormalizeWarm prefix. Checkpoints are a wall-clock optimization
	// only; restores are byte-exact, so results never depend on the
	// store's contents.
	Snapshots *snap.Store
	// Warmup, when positive, gives every preset-assembled configuration
	// (Baseline/Controlled) an uncontrolled warm-start prefix of this
	// many cycles, shared across all runs of a plan that agree modulo
	// measured knobs.
	Warmup int64
}

// DefaultScale finishes the full suite in minutes on a laptop while
// preserving every qualitative result.
func DefaultScale() Scale {
	return Scale{
		Cycles:    150_000,
		Epoch:     15_000,
		Workloads: 21, // 3 per category
		MaxNodes:  1024,
		Seed:      42,
	}
}

// PaperScale is the paper's own configuration (§6.1): 10M cycles, 100
// controller epochs, 875 workloads, up to 4096 nodes. Budget hours.
func PaperScale() Scale {
	return Scale{
		Cycles:    10_000_000,
		Epoch:     100_000,
		Workloads: 875,
		MaxNodes:  4096,
		Seed:      42,
	}
}

// Params returns the controller parameters at this scale's epoch.
func (s Scale) Params() core.Params {
	p := core.DefaultParams()
	p.Epoch = s.Epoch
	return p
}

// pool resolves the inter-sim pool size for n runs.
func (s Scale) pool(n int) int {
	p := s.Parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}
