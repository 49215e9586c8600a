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
			t.Fatalf("Stats.%s has kind %v; extend this test (and Sub) for it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
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
