package runner

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// MaxSweepPoints caps a sweep's expanded grid.
const MaxSweepPoints = 4096

// SweepSpec is the wire form of a parameter grid: a base run, axes
// that vary its declarative fields, and optional explicit extra runs.
// The grid expands to Base with every combination of axis values
// applied (the last axis varying fastest), each point becoming one
// single-run job keyed by CacheKey — so repeated sweeps, and sweeps
// overlapping other sweeps, dedup point by point.
type SweepSpec struct {
	// Scale overrides the executing side's base scale for every point.
	Scale ScaleSpec `json:"scale,omitempty"`
	// Base is the run every grid point starts from.
	Base RunSpec `json:"base,omitempty"`
	// Axes are the varied dimensions, in nesting order.
	Axes []Axis `json:"axes,omitempty"`
	// Runs are explicit extra points, appended after the grid.
	Runs []RunSpec `json:"runs,omitempty"`
}

// Axis names one RunSpec field, by its JSON name, and the values it
// sweeps over. "size" is the one composite axis: it sets both mesh
// dimensions.
type Axis struct {
	Name   string            `json:"name"`
	Values []json.RawMessage `json:"values"`
}

// Points expands the spec into its run list, erroring on unknown axes,
// empty axes, malformed values, or a grid larger than maxPoints.
func (s SweepSpec) Points(maxPoints int) ([]RunSpec, error) {
	total := 1
	for _, ax := range s.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("runner: axis with no name")
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("runner: axis %q has no values", ax.Name)
		}
		total *= len(ax.Values)
		if total > maxPoints {
			return nil, fmt.Errorf("runner: grid exceeds %d points", maxPoints)
		}
	}
	var points []RunSpec
	if len(s.Axes) > 0 {
		idx := make([]int, len(s.Axes))
		for {
			pt := s.Base
			var parts []string
			for a, ax := range s.Axes {
				v := ax.Values[idx[a]]
				if err := setAxis(&pt, ax.Name, v); err != nil {
					return nil, err
				}
				parts = append(parts, ax.Name+"="+valueLabel(v))
			}
			base := s.Base.Label
			if base == "" {
				base = "sweep"
			}
			pt.Label = base + "/" + strings.Join(parts, ",")
			points = append(points, pt)
			// Odometer: last axis fastest.
			a := len(idx) - 1
			for ; a >= 0; a-- {
				idx[a]++
				if idx[a] < len(s.Axes[a].Values) {
					break
				}
				idx[a] = 0
			}
			if a < 0 {
				break
			}
		}
	}
	points = append(points, s.Runs...)
	if len(points) == 0 {
		return nil, fmt.Errorf("runner: sweep declares no points")
	}
	if len(points) > maxPoints {
		return nil, fmt.Errorf("runner: grid exceeds %d points", maxPoints)
	}
	return points, nil
}

// axisFields maps each sweepable RunSpec field's JSON name to its
// field index. Every declarative field is an axis; the label names the
// point and a raw config cannot be swept, so grids stay rawconfig-clean,
// validated through the preset builders like any PlanSpec.
var axisFields = func() map[string]int {
	t := reflect.TypeOf(RunSpec{})
	out := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "label" && name != "config" {
			out[name] = i
		}
	}
	return out
}()

// setAxis sets the field an axis names from a JSON value.
func setAxis(r *RunSpec, name string, v json.RawMessage) error {
	var err error
	if name == "size" {
		var n int
		if err = json.Unmarshal(v, &n); err == nil {
			r.Width, r.Height = n, n
		}
	} else if i, ok := axisFields[name]; ok {
		err = json.Unmarshal(v, reflect.ValueOf(r).Elem().Field(i).Addr().Interface())
	} else {
		return fmt.Errorf("runner: unknown axis %q", name)
	}
	if err != nil {
		return fmt.Errorf("runner: axis %q value %s: %v", name, string(v), err)
	}
	return nil
}

// valueLabel renders an axis value for point labels: strings unquoted,
// everything else as its compact JSON.
func valueLabel(v json.RawMessage) string {
	var s string
	if json.Unmarshal(v, &s) == nil {
		return s
	}
	return string(v)
}
