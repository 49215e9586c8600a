package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"unsafe"
)

// The codec: the Serialized list of every registered struct is its
// encoding. Encode writes the listed fields in list order, recursing
// through nested structs, arrays, slices, maps, pointers and interfaces;
// Decode reads them back into a value that construction already built.
// Per-type plans are compiled once and cached. Unexported fields are
// reached by offset from the value's address, which is why the walk
// lives in this one package.
//
// Wire format, little-endian throughout:
//
//   - numbers in their in-memory width (int and uint as 64 bits: the
//     package supports little-endian 64-bit hosts only), floats as their IEEE-754 bits,
//     bool as one byte, strings length-prefixed;
//   - arrays as their elements; slices as a u32 length and the elements,
//     except []bool, packed eight to a byte;
//   - maps (integer keys only) as a u32 count and the entries in
//     ascending key order;
//   - pointers as a presence byte and the pointee;
//   - interfaces as the dynamic type's name and the pointee, encoded by
//     that type's registration.
//
// Decode never allocates a pointer or picks a type: presence and
// dynamic types must match what construction built. A slice
// construction left non-empty has a fixed shape the blob must match; an
// empty one may grow, but only as far as the remaining input could
// hold. Anything else a type needs — a different layout, canonical
// ordering, invariants the walk cannot see, derived state — is a hook.

// Encoder is the writer half of a hook. A registered struct whose
// encoding is more than its field list implements it on its pointer;
// the walker calls it after the Serialized fields. Fields the hook
// encodes are waived in the type's Coverage with the reason "hook: ...".
type Encoder interface {
	EncodeSnap(w *Writer)
}

// Decoder is the reader half of a hook, called after the Serialized
// fields decoded without error. A type whose hook only checks
// invariants or rebuilds derived state implements Decoder alone.
type Decoder interface {
	DecodeSnap(r *Reader)
}

// Encode appends the value ptr points to.
func Encode(w *Writer, ptr any) {
	p, c := target(ptr)
	c.enc(w, p)
}

// Decode overlays the value ptr points to with the next encoded value.
// Like every read it is a no-op once r has failed.
func Decode(r *Reader, ptr any) {
	if r.err == nil {
		p, c := target(ptr)
		c.dec(r, p)
	}
}

func target(ptr any) (unsafe.Pointer, *codec) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic(fmt.Sprintf("snap: Encode/Decode need a non-nil pointer, got %T", ptr))
	}
	c, err := codecFor(v.Type().Elem())
	if err != nil {
		panic("snap: " + err.Error())
	}
	return v.UnsafePointer(), c
}

// codec is one type's compiled plan.
type codec struct {
	enc func(w *Writer, p unsafe.Pointer)
	dec func(r *Reader, p unsafe.Pointer)
	// size is the fewest bytes one value encodes to; it bounds how far
	// a decoded length may grow a slice or map.
	size int
}

var (
	codecs    sync.Map // reflect.Type -> *codec
	compileMu sync.Mutex
)

// codecFor returns t's plan, compiling it (and every type it reaches)
// on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	building := map[reflect.Type]*codec{}
	c, err := compile(t, building)
	if err == nil {
		for bt, bc := range building {
			codecs.Store(bt, bc)
		}
	}
	return c, err
}

// fieldError locates a compile failure at the struct field it arose in.
type fieldError struct {
	field string
	err   error
}

func (e *fieldError) Error() string { return e.field + ": " + e.err.Error() }

func compile(t reflect.Type, building map[reflect.Type]*codec) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	if c, ok := building[t]; ok {
		return c, nil // a recursive type: filled in by the outer call
	}
	c := &codec{}
	building[t] = c
	var err error
	switch k := t.Kind(); {
	case k == reflect.Bool:
		c.size = 1
		c.enc = func(w *Writer, p unsafe.Pointer) { w.Bool(*(*bool)(p)) }
		c.dec = func(r *Reader, p unsafe.Pointer) { *(*bool)(p) = r.Bool() }
	case width(t) > 0:
		n := width(t)
		c.size = n
		c.enc = func(w *Writer, p unsafe.Pointer) { putWords(w, p, 1, n) }
		c.dec = func(r *Reader, p unsafe.Pointer) { getWords(r, p, 1, n) }
	case k == reflect.String:
		c.size = 4
		c.enc = func(w *Writer, p unsafe.Pointer) { w.Str(*(*string)(p)) }
		c.dec = func(r *Reader, p unsafe.Pointer) { *(*string)(p) = r.Str() }
	case k == reflect.Array, k == reflect.Slice:
		err = c.sequence(t, building)
	case k == reflect.Map:
		err = c.mapOf(t, building)
	case k == reflect.Pointer:
		err = c.pointer(t, building)
	case k == reflect.Interface:
		err = c.iface(t)
	case k == reflect.Struct:
		err = c.structOf(t, building)
	default:
		err = fmt.Errorf("%v cannot be encoded", t)
	}
	return c, err
}

// width returns the encoded width of a fixed-size number type, or 0.
func width(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return int(t.Size())
	}
	return 0
}

// Numbers are copied to and from the wire as their in-memory bytes, so
// the host must share the wire's layout.
func init() {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 || unsafe.Sizeof(int(0)) != 8 {
		panic("snap: the checkpoint codec needs a little-endian 64-bit host")
	}
}

// putWords appends n numbers of the given width stored at p: the bulk
// path for scalars and for arrays and slices of them.
func putWords(w *Writer, p unsafe.Pointer, n, width int) {
	w.buf = append(w.buf, unsafe.Slice((*byte)(p), n*width)...)
}

func getWords(r *Reader, p unsafe.Pointer, n, width int) {
	if src := r.take(n * width); src != nil {
		copy(unsafe.Slice((*byte)(p), n*width), src)
	}
}

// sequence compiles an array or slice: numbers in bulk, bools packed
// (slices only), anything else element by element.
func (c *codec) sequence(t reflect.Type, building map[reflect.Type]*codec) error {
	elem := t.Elem()
	var ec *codec
	if width(elem) == 0 {
		var err error
		if ec, err = compile(elem, building); err != nil {
			return err
		}
	}
	packed := t.Kind() == reflect.Slice && elem.Kind() == reflect.Bool
	esz := elem.Size()
	put := func(w *Writer, p unsafe.Pointer, n int) {
		switch {
		case packed:
			b := make([]byte, (n+7)/8)
			for i, v := range unsafe.Slice((*bool)(p), n) {
				if v {
					b[i>>3] |= 1 << (i & 7)
				}
			}
			w.buf = append(w.buf, b...)
		case ec == nil:
			putWords(w, p, n, width(elem))
		default:
			for i := 0; i < n; i++ {
				ec.enc(w, unsafe.Add(p, uintptr(i)*esz))
			}
		}
	}
	get := func(r *Reader, p unsafe.Pointer, n int) {
		switch {
		case packed:
			b := r.take((n + 7) / 8)
			for i, s := 0, unsafe.Slice((*bool)(p), n); b != nil && i < n; i++ {
				s[i] = b[i>>3]>>(i&7)&1 != 0
			}
		case ec == nil:
			getWords(r, p, n, width(elem))
		default:
			for i := 0; i < n && r.err == nil; i++ {
				ec.dec(r, unsafe.Add(p, uintptr(i)*esz))
			}
		}
	}
	// bytes is the fewest bytes n elements encode to.
	bytes := func(n int) int {
		switch {
		case packed:
			return (n + 7) / 8
		case ec == nil:
			return n * width(elem)
		}
		return n * max(ec.size, 1)
	}
	if t.Kind() == reflect.Array {
		n := t.Len()
		c.size = bytes(n)
		c.enc = func(w *Writer, p unsafe.Pointer) { put(w, p, n) }
		c.dec = func(r *Reader, p unsafe.Pointer) { get(r, p, n) }
		return nil
	}
	c.size = 4
	c.enc = func(w *Writer, p unsafe.Pointer) {
		v := reflect.NewAt(t, p).Elem()
		w.U32(uint32(v.Len()))
		put(w, v.UnsafePointer(), v.Len())
	}
	c.dec = func(r *Reader, p unsafe.Pointer) {
		n := int(r.U32())
		v := reflect.NewAt(t, p).Elem()
		switch cur := v.Len(); {
		case r.err != nil:
			return
		case cur > 0:
			if n != cur {
				r.fail("%v length %d, fixed at %d by construction", t, n, cur)
				return
			}
		case bytes(n) > r.Rest():
			r.fail("%v length %d exceeds the remaining input", t, n)
			return
		case n <= v.Cap():
			v.SetLen(n)
			v.Clear()
		default:
			v.Set(reflect.MakeSlice(t, n, n))
		}
		get(r, v.UnsafePointer(), n)
	}
	return nil
}

// order maps an integer key to a uint64 with the same ordering.
func order(k reflect.Value) uint64 {
	if k.CanInt() {
		return uint64(k.Int()) ^ 1<<63
	}
	return k.Uint()
}

func (c *codec) mapOf(t reflect.Type, building map[reflect.Type]*codec) error {
	if key := reflect.Zero(t.Key()); !key.CanInt() && !key.CanUint() {
		return fmt.Errorf("%v cannot be encoded (map keys must be integers)", t)
	}
	kc, err := compile(t.Key(), building)
	if err != nil {
		return err
	}
	vc, err := compile(t.Elem(), building)
	if err != nil {
		return err
	}
	c.size = 4
	c.enc = func(w *Writer, p unsafe.Pointer) {
		m := reflect.NewAt(t, p).Elem()
		keys := m.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return order(keys[i]) < order(keys[j]) })
		k, v := reflect.New(t.Key()), reflect.New(t.Elem())
		w.U32(uint32(len(keys)))
		for _, key := range keys {
			k.Elem().Set(key)
			v.Elem().Set(m.MapIndex(key))
			kc.enc(w, k.UnsafePointer())
			vc.enc(w, v.UnsafePointer())
		}
	}
	c.dec = func(r *Reader, p unsafe.Pointer) {
		n := int(r.U32())
		if r.err == nil && n*max(kc.size+vc.size, 1) > r.Rest() {
			r.fail("%v count %d exceeds the remaining input", t, n)
		}
		if r.err != nil {
			return
		}
		m := reflect.NewAt(t, p).Elem()
		if m.IsNil() {
			m.Set(reflect.MakeMapWithSize(t, n))
		}
		m.Clear()
		k, v := reflect.New(t.Key()), reflect.New(t.Elem())
		for i := 0; i < n; i++ {
			prev := order(k.Elem())
			v.Elem().SetZero()
			kc.dec(r, k.UnsafePointer())
			vc.dec(r, v.UnsafePointer())
			if r.err == nil && i > 0 && order(k.Elem()) <= prev {
				r.fail("%v keys out of order", t)
			}
			if r.err != nil {
				return
			}
			m.SetMapIndex(k.Elem(), v.Elem())
		}
	}
	return nil
}

func (c *codec) pointer(t reflect.Type, building map[reflect.Type]*codec) error {
	ec, err := compile(t.Elem(), building)
	if err != nil {
		return err
	}
	c.size = 1
	c.enc = func(w *Writer, p unsafe.Pointer) {
		q := *(*unsafe.Pointer)(p)
		w.Bool(q != nil)
		if q != nil {
			ec.enc(w, q)
		}
	}
	c.dec = func(r *Reader, p unsafe.Pointer) {
		q := *(*unsafe.Pointer)(p)
		if present := r.Bool(); r.err == nil && present != (q != nil) {
			r.fail("%v present=%t, construction built present=%t", t, present, q != nil)
		} else if present {
			ec.dec(r, q)
		}
	}
	return nil
}

// dynamic returns the pointer an interface value holds and its type's
// name ("" for a nil interface).
func dynamic(t reflect.Type, p unsafe.Pointer) (any, string) {
	v := reflect.NewAt(t, p).Elem()
	if v.IsNil() {
		return nil, ""
	}
	if d := v.Elem(); d.Kind() != reflect.Pointer || d.IsNil() {
		panic(fmt.Sprintf("snap: %v holds %v; only non-nil pointers can be encoded", t, d.Type()))
	}
	return v.Interface(), v.Elem().Type().String()
}

func (c *codec) iface(t reflect.Type) error {
	if !implemented(t) {
		return fmt.Errorf("%v cannot be encoded (no registered type implements it)", t)
	}
	c.size = 4
	c.enc = func(w *Writer, p unsafe.Pointer) {
		ptr, name := dynamic(t, p)
		w.Str(name)
		if ptr != nil {
			Encode(w, ptr)
		}
	}
	c.dec = func(r *Reader, p unsafe.Pointer) {
		ptr, name := dynamic(t, p)
		if got := r.Str(); r.err == nil && got != name {
			r.fail("%v holds %q, blob has %q", t, name, got)
		} else if ptr != nil {
			Decode(r, ptr)
		}
	}
	return nil
}

// implemented reports whether a pointer to some registered struct
// implements interface t.
func implemented(t reflect.Type) bool {
	coverMu.Lock()
	defer coverMu.Unlock()
	for ct := range coverage {
		if reflect.PointerTo(ct).Implements(t) {
			return true
		}
	}
	return false
}

var (
	encoderType = reflect.TypeOf((*Encoder)(nil)).Elem()
	decoderType = reflect.TypeOf((*Decoder)(nil)).Elem()
)

func (c *codec) structOf(t reflect.Type, building map[reflect.Type]*codec) error {
	cov, ok := Covered(t)
	if !ok {
		return fmt.Errorf("%v is not registered with snap.Cover", t)
	}
	type field struct {
		off uintptr
		c   *codec
	}
	var fields []field
	for _, name := range cov.Serialized {
		if name == "_" {
			continue
		}
		f, _ := t.FieldByName(name)
		if len(f.Index) != 1 {
			return fmt.Errorf("%v.%s: promoted fields cannot be listed; list the embedded struct", t, name)
		}
		fc, err := compile(f.Type, building)
		if err != nil {
			var fe *fieldError
			if !errors.As(err, &fe) {
				err = &fieldError{fmt.Sprintf("%v.%s", t, name), err}
			}
			return err
		}
		fields = append(fields, field{f.Offset, fc})
		c.size += fc.size
	}
	encHook, decHook := hooks(t)
	if encHook && !decHook {
		return fmt.Errorf("%v has an EncodeSnap hook but no DecodeSnap", t)
	}
	c.enc = func(w *Writer, p unsafe.Pointer) {
		for _, f := range fields {
			f.c.enc(w, unsafe.Add(p, f.off))
		}
		if encHook {
			reflect.NewAt(t, p).Interface().(Encoder).EncodeSnap(w)
		}
	}
	c.dec = func(r *Reader, p unsafe.Pointer) {
		for _, f := range fields {
			if r.err != nil {
				return
			}
			f.c.dec(r, unsafe.Add(p, f.off))
		}
		if decHook && r.err == nil {
			reflect.NewAt(t, p).Interface().(Decoder).DecodeSnap(r)
		}
	}
	return nil
}

// hooks reports which hooks t implements itself (on T or *T), leaving
// out one promoted from an embedded field: a promoted hook already
// runs when the embedded field is encoded, and must not run a second
// time for the outer struct. The method names are constants so the
// linker can still drop every other unused method.
func hooks(t reflect.Type) (enc, dec bool) {
	pt := reflect.PointerTo(t)
	enc, dec = pt.Implements(encoderType), pt.Implements(decoderType)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.Anonymous {
			continue
		}
		ft := f.Type
		if ft.Kind() != reflect.Pointer {
			ft = reflect.PointerTo(ft)
		}
		if enc && ft.Implements(encoderType) {
			m, ok := t.MethodByName("EncodeSnap")
			if !ok {
				m, _ = pt.MethodByName("EncodeSnap")
			}
			enc = !generated(m)
		}
		if dec && ft.Implements(decoderType) {
			m, ok := t.MethodByName("DecodeSnap")
			if !ok {
				m, _ = pt.MethodByName("DecodeSnap")
			}
			dec = !generated(m)
		}
	}
	return enc, dec
}

// generated reports whether the compiler wrote m's body, as it does
// for a method promoted from an embedded field.
func generated(m reflect.Method) bool {
	pc := m.Func.Pointer()
	file, _ := runtime.FuncForPC(pc).FileLine(pc)
	return file == "<autogenerated>"
}
