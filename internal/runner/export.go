package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nocsim/internal/obs"
	"nocsim/internal/sim"
)

// ExportObs writes every enabled collector of an observed simulation
// into dir as <label>.<kind> files: samples.jsonl and samples.csv
// (interval time series), epochs.jsonl and epochs.csv (the congestion
// decision ledger), trace.json (Chrome trace-event format), nodes.csv
// and links.csv (spatial grids), and manifest.json (the
// reproducibility record). It is a no-op when the simulation was built
// without collectors. All exports except the manifest's elapsed_ms
// field are deterministic: byte-identical at any -parallel setting.
func ExportObs(s *sim.Sim, dir, label string, cfg sim.Config, elapsed time.Duration) error {
	o := s.Obs()
	if o == nil {
		return nil
	}
	// MkdirAll is a no-op on a pre-existing directory, so exporting many
	// runs (or re-running) into one ObsDir is idempotent; only a
	// non-directory squatting on the path fails.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runner: creating obs dir %s: %w", dir, err)
	}
	base := filepath.Join(dir, sanitizeLabel(label))

	if o.Sampler != nil {
		if err := writeFile(base+".samples.jsonl", o.Sampler.WriteJSONL); err != nil {
			return err
		}
		if err := writeFile(base+".samples.csv", o.Sampler.WriteCSV); err != nil {
			return err
		}
	}
	if o.Epochs != nil {
		if err := writeFile(base+".epochs.jsonl", o.Epochs.WriteJSONL); err != nil {
			return err
		}
		if err := writeFile(base+".epochs.csv", o.Epochs.WriteCSV); err != nil {
			return err
		}
	}
	if o.Tracer != nil {
		if err := writeFile(base+".trace.json", o.Tracer.WriteChromeTrace); err != nil {
			return err
		}
	}
	if o.Spatial != nil {
		if err := writeFile(base+".nodes.csv", o.Spatial.WriteNodeCSV); err != nil {
			return err
		}
		if err := writeFile(base+".links.csv", o.Spatial.WriteLinkCSV); err != nil {
			return err
		}
	}

	m := s.Metrics()
	rawCfg, err := json.Marshal(&cfg)
	if err != nil {
		return fmt.Errorf("runner: encoding config for manifest: %w", err)
	}
	man := obs.Manifest{
		Label:        label,
		Seed:         cfg.Seed,
		Nodes:        m.Nodes,
		Cycles:       m.Cycles,
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
		CountersHash: CountersHash(m),
		Config:       rawCfg,
	}
	man.WarmSource, man.WarmCycle = s.Origin()
	if man.WarmSource == "" {
		man.WarmSource = "cold"
	}
	man.FillEnv()
	return writeFile(base+".manifest.json", man.Write)
}

// CountersHash is a run's integrity digest: the fabric counters plus
// the total retired instructions and L1 misses, the hash every manifest,
// cache entry and sweep point carries.
func CountersHash(m sim.Metrics) string {
	var retired int64
	for _, r := range m.Retired {
		retired += r
	}
	return obs.HashCounters(m.Net, retired, m.Misses)
}

// writeFile creates path and streams one collector export into it.
// Every failure path returns a pkg:-prefixed wrapped error, so a caller
// surfacing it names the layer without a stack walk.
func writeFile(path string, emit func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runner: creating %s: %w", path, err)
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("runner: exporting %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runner: exporting %s: %w", path, err)
	}
	return nil
}

// sanitizeLabel maps a run label onto a safe file stem: path
// separators and shell-hostile characters become dashes.
func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "run"
	}
	return b.String()
}
