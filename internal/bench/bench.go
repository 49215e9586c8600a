// Package bench is the shared schema of the repository's benchmark
// documents (BENCH_step.json): the shapes cmd/benchjson writes and
// cmd/benchdiff compares. Keeping the schema in one package means the
// writer and the drift gate can never disagree about a field name, and
// a schema change is one diff reviewed in one place.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Record is one benchmark cell: a case of the fabric-stepping matrix.
// Workers is the number of goroutines that stepped the fabric. New
// records always carry 1; earlier runs also recorded wider cells, and
// the field keeps them loadable and keys every cell for cmd/benchdiff.
type Record struct {
	Name           string  `json:"name"`
	Workers        int     `json:"workers"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	FlitHopsPerSec float64 `json:"flit_hops_per_sec"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
}

// SnapRecord is one checkpoint-codec cell: the cost of encoding a full
// simulator state, the cost of rebuilding one from the blob, and the
// blob size the store pays per entry.
type SnapRecord struct {
	Name       string  `json:"name"`
	BlobBytes  float64 `json:"blob_bytes"`
	SnapshotNs float64 `json:"snapshot_ns"`
	RestoreNs  float64 `json:"restore_ns"`
}

// SweepRecord reports the warm-start sweep benchmark: the same
// static-rate sweep executed cold (every point re-simulates its warmup
// prefix) and warm (all points fork one shared checkpoint).
type SweepRecord struct {
	Points             int     `json:"points"`
	WarmupCycles       int64   `json:"warmup_cycles"`
	MeasuredCycles     int64   `json:"measured_cycles_per_point"`
	ColdTotalCycles    int64   `json:"cold_total_cycles"`
	WarmTotalCycles    int64   `json:"warm_total_cycles"`
	ColdOverWarmCycles float64 `json:"cold_over_warm_cycles"`
	ColdPointsPerSec   float64 `json:"cold_points_per_sec"`
	WarmPointsPerSec   float64 `json:"warm_points_per_sec"`
}

// Environment identifies the machine and toolchain a benchmark file
// was produced on; numbers are only comparable within one environment.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Run is one labeled sweep of the benchmark matrix.
type Run struct {
	Label     string       `json:"label"`
	Records   []Record     `json:"records"`
	Snapshots []SnapRecord `json:"snapshots,omitempty"`
	Sweep     *SweepRecord `json:"sweep,omitempty"`
}

// File is the whole document: environment metadata plus the
// accumulated labeled runs. The legacy single-run form (a top-level
// "records" array) is still read and migrated to a run labeled
// "legacy" on the next write.
type File struct {
	Env  Environment `json:"env"`
	Runs []Run       `json:"runs"`

	// LegacyRecords captures the pre-labeled-run schema on read; it is
	// never written back.
	LegacyRecords []Record `json:"records,omitempty"`
}

// Load reads a benchmark document and migrates the legacy schema. A
// missing file yields an empty document, so accumulating writers can
// start from nothing.
func Load(path string) (File, error) {
	var doc File
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return doc, nil
	}
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(doc.LegacyRecords) > 0 {
		doc.Runs = append([]Run{{Label: "legacy", Records: doc.LegacyRecords}}, doc.Runs...)
		doc.LegacyRecords = nil
	}
	return doc, nil
}

// Run returns the run with the given label, or the most recent run
// when label is empty; nil when absent.
func (f *File) Run(label string) *Run {
	if label == "" {
		if len(f.Runs) == 0 {
			return nil
		}
		return &f.Runs[len(f.Runs)-1]
	}
	for i := range f.Runs {
		if f.Runs[i].Label == label {
			return &f.Runs[i]
		}
	}
	return nil
}

// Upsert replaces the run with the same label, or appends.
func Upsert(runs []Run, r Run) []Run {
	for i := range runs {
		if runs[i].Label == r.Label {
			runs[i] = r
			return runs
		}
	}
	return append(runs, r)
}
