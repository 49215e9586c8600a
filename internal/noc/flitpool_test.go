package noc

import (
	"reflect"
	"testing"
)

// TestFlitPoolCoversFlit pins, by reflection, that the hot and cold
// planes partition Flit exactly: same field names, same types, no
// field of Flit missing and none duplicated. A field added to Flit
// without a pool home would let recycled slots leak state between
// packets; this test turns that into a build-time failure.
func TestFlitPoolCoversFlit(t *testing.T) {
	plane := map[string]reflect.Type{}
	collect := func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if _, dup := plane[f.Name]; dup {
				t.Errorf("field %s appears in both planes", f.Name)
			}
			plane[f.Name] = f.Type
		}
	}
	collect(reflect.TypeOf(FlitHot{}))
	collect(reflect.TypeOf(FlitCold{}))

	ft := reflect.TypeOf(Flit{})
	if got, want := len(plane), ft.NumField(); got != want {
		t.Errorf("planes define %d fields, Flit has %d", got, want)
	}
	for i := 0; i < ft.NumField(); i++ {
		f := ft.Field(i)
		pt, ok := plane[f.Name]
		if !ok {
			t.Errorf("Flit.%s has no home in FlitHot/FlitCold", f.Name)
			continue
		}
		if pt != f.Type {
			t.Errorf("Flit.%s is %v in the pool planes, want %v", f.Name, pt, f.Type)
		}
	}
}

// nonzeroFlit builds a Flit with every field set to a distinct nonzero
// value, via reflection so a new field cannot be forgotten.
func nonzeroFlit(t *testing.T) Flit {
	t.Helper()
	var f Flit
	v := reflect.ValueOf(&f).Elem()
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int8, reflect.Int32, reflect.Int64:
			fv.SetInt(int64(i) + 3)
		case reflect.Uint8, reflect.Uint64:
			fv.SetUint(uint64(i) + 3)
		default:
			t.Fatalf("unhandled Flit field kind %v; extend nonzeroFlit", fv.Kind())
		}
	}
	return f
}

// TestFlitPoolRoundTrip checks Alloc+Get reproduce every field and
// that Free zeroes both planes of the recycled slot.
func TestFlitPoolRoundTrip(t *testing.T) {
	p := NewFlitPool()
	p.Reserve(2)
	want := nonzeroFlit(t)

	h := p.Alloc(&want)
	if h == 0 {
		t.Fatal("Alloc returned the nil handle")
	}
	var got Flit
	p.Get(h, &got)
	if got != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	p.Free(h)
	if *p.Hot(h) != (FlitHot{}) {
		t.Errorf("freed hot plane not zeroed: %+v", *p.Hot(h))
	}
	if *p.Cold(h) != (FlitCold{}) {
		t.Errorf("freed cold plane not zeroed: %+v", *p.Cold(h))
	}
}

// TestFlitPoolReserveGrows checks growth and the free-list
// accounting: freed slots are reused before the pool grows, and a
// genuine shortfall grows it.
func TestFlitPoolReserveGrows(t *testing.T) {
	p := NewFlitPool()
	p.Reserve(10)
	if p.FreeSlots() != p.Cap() {
		t.Errorf("fresh pool: free %d != cap %d", p.FreeSlots(), p.Cap())
	}
	f := nonzeroFlit(t)
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, p.Alloc(&f))
	}
	for _, h := range hs {
		p.Free(h)
	}
	if p.FreeSlots() != p.Cap() {
		t.Errorf("after churn: free %d != cap %d", p.FreeSlots(), p.Cap())
	}
	// Recycled slots cover the next Reserve; the pool must not grow.
	capBefore := p.Cap()
	p.Reserve(10)
	if p.Cap() != capBefore {
		t.Errorf("Reserve grew the pool (%d -> %d) instead of reusing freed slots", capBefore, p.Cap())
	}
	for i := 0; i < 10; i++ {
		p.Alloc(&f)
	}
	// A genuine shortfall grows the pool.
	p.Reserve(250)
	if p.FreeSlots() < 250 {
		t.Errorf("after growth: free %d < 250", p.FreeSlots())
	}
	for i := 0; i < 250; i++ {
		p.Alloc(&f)
	}
}

// TestOlderHot pins that the handle-plane order equals Older on the
// assembled flits.
func TestOlderHot(t *testing.T) {
	p := NewFlitPool()
	p.Reserve(4)
	a := nonzeroFlit(t)
	b := a
	b.Inject++
	c := a
	c.Seq++
	d := a
	d.Index++
	flits := []Flit{a, b, c, d}
	for i := range flits {
		for j := range flits {
			ha := p.Alloc(&flits[i])
			hb := p.Alloc(&flits[j])
			if got, want := OlderHot(p.Hot(ha), p.Hot(hb)), Older(&flits[i], &flits[j]); got != want {
				t.Errorf("OlderHot(%d,%d) = %v, Older = %v", i, j, got, want)
			}
			p.Free(ha)
			p.Free(hb)
		}
	}
}
