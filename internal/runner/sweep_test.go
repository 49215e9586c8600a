package runner

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func rawVals(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

// TestSweepExpansion pins the grid semantics: odometer order with the
// last axis fastest, labels naming every axis value, the size axis
// setting both mesh dimensions, and explicit runs appended last.
func TestSweepExpansion(t *testing.T) {
	spec := SweepSpec{
		Base: RunSpec{Label: "g", Preset: "controlled", Workload: "H", Width: 4, Height: 4},
		Axes: []Axis{
			{Name: "preset", Values: rawVals(`"baseline"`, `"controlled"`)},
			{Name: "seed", Values: rawVals("1", "2", "3")},
		},
		Runs: []RunSpec{{Label: "extra", Preset: "static", Workload: "H", Width: 4, Height: 4}},
	}
	points, err := spec.Points(MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"g/preset=baseline,seed=1", "g/preset=baseline,seed=2", "g/preset=baseline,seed=3",
		"g/preset=controlled,seed=1", "g/preset=controlled,seed=2", "g/preset=controlled,seed=3",
		"extra",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("expanded to %d points, want %d", len(points), len(wantLabels))
	}
	for i, want := range wantLabels {
		if points[i].Label != want {
			t.Errorf("point %d label = %q, want %q", i, points[i].Label, want)
		}
	}
	if points[0].Preset != "baseline" || points[0].Seed != 1 {
		t.Errorf("point 0 = %+v, want baseline seed 1", points[0])
	}
	if points[5].Preset != "controlled" || points[5].Seed != 3 {
		t.Errorf("point 5 = %+v, want controlled seed 3", points[5])
	}

	// The size axis sets both dimensions; an unlabeled base gets the
	// "sweep" prefix.
	sz := SweepSpec{
		Base: RunSpec{Preset: "controlled", Workload: "H"},
		Axes: []Axis{{Name: "size", Values: rawVals("4", "8")}},
	}
	pts, err := sz.Points(MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Width != 8 || pts[1].Height != 8 {
		t.Errorf("size axis point = %+v, want 8x8", pts[1])
	}
	if pts[0].Label != "sweep/size=4" {
		t.Errorf("unlabeled base expands to %q, want sweep/size=4", pts[0].Label)
	}
}

// TestSweepExpansionErrors pins the rejection paths: unknown axes
// (the label and a raw config are not axes), empty axes, malformed
// values, oversized grids and empty sweeps all error before anything
// executes.
func TestSweepExpansionErrors(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
		max  int
		want string
	}{
		{"unknown axis", SweepSpec{Axes: []Axis{{Name: "bogus", Values: rawVals("1")}}}, 4096, "unknown axis"},
		{"unnamed axis", SweepSpec{Axes: []Axis{{Values: rawVals("1")}}}, 4096, "no name"},
		{"empty axis", SweepSpec{Axes: []Axis{{Name: "seed"}}}, 4096, "no values"},
		{"bad value", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals(`"many"`)}}}, 4096, `axis "seed"`},
		{"oversized", SweepSpec{Axes: []Axis{{Name: "seed", Values: rawVals("1", "2", "3", "4")}}}, 3, "exceeds 3 points"},
		{"empty sweep", SweepSpec{}, 4096, "no points"},
		{"label axis", SweepSpec{Axes: []Axis{{Name: "label", Values: rawVals(`"x"`)}}}, 4096, `unknown axis "label"`},
		{"config axis", SweepSpec{Axes: []Axis{{Name: "config", Values: rawVals(`{"Width":4}`)}}}, 4096, `unknown axis "config"`},
		{"case-folded axis", SweepSpec{Axes: []Axis{{Name: "Seed", Values: rawVals("1")}}}, 4096, "unknown axis"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Points(tc.max)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Points() error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSweepAxisPerField has one row per declarative RunSpec field,
// generated from the struct itself: each is an axis under its JSON
// name and sets exactly that field. A field added to RunSpec is
// sweepable, and covered here, with no other edit.
func TestSweepAxisPerField(t *testing.T) {
	rt := reflect.TypeOf(RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "label" || name == "config" {
			continue
		}
		var value string
		switch f.Type.Kind() {
		case reflect.String:
			value = `"v"`
		case reflect.Int, reflect.Int64, reflect.Uint64:
			value = "7"
		case reflect.Float64:
			value = "0.5"
		case reflect.Bool:
			value = "true"
		default:
			t.Fatalf("RunSpec.%s: no test value for kind %s", f.Name, f.Type.Kind())
		}
		t.Run(name, func(t *testing.T) {
			points, err := SweepSpec{Axes: []Axis{{Name: name, Values: rawVals(value)}}}.Points(MaxSweepPoints)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.ValueOf(points[0])
			for j := 0; j < rt.NumField(); j++ {
				if rt.Field(j).Name == "Label" {
					continue
				}
				if set := !got.Field(j).IsZero(); set != (j == i) {
					t.Errorf("axis %q: field %s set = %v", name, rt.Field(j).Name, set)
				}
			}
			if want := "sweep/" + name + "=" + valueLabel(json.RawMessage(value)); points[0].Label != want {
				t.Errorf("label = %q, want %q", points[0].Label, want)
			}
		})
	}
}
