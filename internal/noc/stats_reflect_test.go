package noc

import (
	"reflect"
	"testing"
)

// fillDistinct sets every field of a Stats to a distinct nonzero value
// via reflection, so coverage checks see each field independently.
func fillDistinct(t *testing.T) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64, reflect.Int:
			f.SetInt(int64(100 + i))
		default:
			t.Fatalf("Stats.%s has kind %v; extend this test (and Merge/Sub) for it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

// TestMergeCoversEveryField walks Stats by reflection so that a counter
// added without updating Merge fails here instead of silently vanishing
// from a merged total. Cycles and Links are fabric properties, not
// events, and must be left alone.
func TestMergeCoversEveryField(t *testing.T) {
	src := fillDistinct(t)
	var dst Stats
	dst.Merge(src)

	sv := reflect.ValueOf(src)
	dv := reflect.ValueOf(dst)
	typ := sv.Type()
	for i := 0; i < sv.NumField(); i++ {
		name := typ.Field(i).Name
		got, want := dv.Field(i).Int(), sv.Field(i).Int()
		switch name {
		case "Cycles", "Links":
			if got != 0 {
				t.Errorf("Merge summed fabric property %s: got %d, want 0", name, got)
			}
		default:
			if got != want {
				t.Errorf("Merge dropped Stats.%s: got %d, want %d — update Merge for the new field", name, got, want)
			}
		}
	}

	// Merging twice must double every event counter (commutative sums).
	dst.Merge(src)
	dv = reflect.ValueOf(dst)
	for i := 0; i < sv.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Cycles" || name == "Links" {
			continue
		}
		if got, want := dv.Field(i).Int(), 2*sv.Field(i).Int(); got != want {
			t.Errorf("double Merge of Stats.%s: got %d, want %d", name, got, want)
		}
	}
}

// TestSubCoversEveryField checks the snapshot delta the same way:
// every field except Links (a fabric property carried through) must be
// subtracted, or interval samples would show cumulative totals.
func TestSubCoversEveryField(t *testing.T) {
	cur := fillDistinct(t)
	prev := fillDistinct(t)
	// Halve prev so every delta is a distinct nonzero value.
	pv := reflect.ValueOf(&prev).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetInt(pv.Field(i).Int() / 2)
	}

	d := cur.Sub(prev)
	cv, qv, dv := reflect.ValueOf(cur), reflect.ValueOf(prev), reflect.ValueOf(d)
	typ := cv.Type()
	for i := 0; i < cv.NumField(); i++ {
		name := typ.Field(i).Name
		got := dv.Field(i).Int()
		if name == "Links" {
			if got != cv.Field(i).Int() {
				t.Errorf("Sub must preserve Links: got %d, want %d", got, cv.Field(i).Int())
			}
			continue
		}
		if want := cv.Field(i).Int() - qv.Field(i).Int(); got != want {
			t.Errorf("Sub missed Stats.%s: got %d, want %d — update Sub for the new field", name, got, want)
		}
	}
}
