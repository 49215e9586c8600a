package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.Str("hello")

	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if r.Rest() != 0 {
		t.Errorf("%d bytes left over", r.Rest())
	}
}

func TestReaderStickyErrors(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	_ = r.U32() // past the end
	if r.Err() == nil {
		t.Fatal("overrun not detected")
	}
	first := r.Err()
	_ = r.Str() // further reads keep the first error
	if r.Err() != first {
		t.Errorf("error not sticky: %v", r.Err())
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader([]byte("notasnap....")); err == nil {
		t.Error("bad magic accepted")
	}
	w := NewWriter()
	b := append([]byte(nil), w.Bytes()...)
	b[len(b)-4] = 99 // corrupt version
	if _, err := NewReader(b); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter()
	w.Str("seven")
	b := w.Bytes()[:w.Len()-2]
	r, err := NewReader(b)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	_ = r.Str()
	if r.Err() == nil {
		t.Error("truncation not detected")
	}
}

type coveredLeaf struct {
	a int64
	b []uint32
	c string
}

type uncoveredLeaf struct {
	x int
}

type coverRoot struct {
	leaf    coveredLeaf
	orphan  uncoveredLeaf
	opaqueT opaqueType
}

type opaqueType struct {
	hidden int
}

func init() {
	Cover(coveredLeaf{}, Coverage{
		Serialized: []string{"a", "b"},
		// c deliberately missing: TestVerify checks it is reported.
	})
	Cover(coverRoot{}, Coverage{
		Serialized: []string{"leaf"},
		Waived:     map[string]string{"orphan": "test fixture", "opaqueT": "test fixture"},
	})
}

func TestVerifyReportsGaps(t *testing.T) {
	got := Verify(VerifyOptions{
		PkgPrefix: "nocsim/internal/snap",
		Opaque:    []any{opaqueType{}},
	}, coverRoot{})
	want := []string{
		"snap.coveredLeaf.c: field neither serialized nor waived",
		"snap.uncoveredLeaf: struct not registered with snap.Cover",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Verify = %q, want %q", got, want)
	}
}

func TestCoverPanicsOnUnknownField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cover accepted a nonexistent field")
		}
	}()
	Cover(uncoveredLeaf{}, Coverage{Serialized: []string{"nope"}})
}

// TestCoverConfigRejectsState: only configuration types may be waived
// whole; a state struct must name its fields.
func TestCoverConfigRejectsState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CoverConfig accepted a state struct")
		}
	}()
	CoverConfig(uncoveredLeaf{})
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "abcdef0123456789"
	blob := []byte("checkpoint payload")
	if err := s.Put(digest, 1000, "key-at-1000", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(digest, 1000, "key-at-1000")
	if !ok || string(got) != string(blob) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(digest, 2000, ""); ok {
		t.Error("Get at absent cycle succeeded")
	}
	if _, ok := s.Get(digest, 1000, "wrong-key"); ok {
		t.Error("Get with wrong key succeeded")
	}
	st := s.Stats()
	// The wrong-key read deletes the entry (it is indistinguishable
	// from corruption), so only the counters below are stable.
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 2 || st.Corrupt != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreFindLongestPrefix(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "feedface00112233"
	for _, c := range []int64{500, 1500, 2500} {
		if err := s.Put(digest, c, "k", []byte("blob")); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		max  int64
		want int64
		ok   bool
	}{
		{3000, 2500, true},
		{2500, 2500, true},
		{2000, 1500, true},
		{499, 0, false},
	}
	for _, c := range cases {
		got, ok := s.Find(digest, c.max)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Find(max=%d) = %d, %v; want %d, %v", c.max, got, ok, c.want, c.ok)
		}
	}
	if _, ok := s.Find("0000000000000000", 3000); ok {
		t.Error("Find for unknown digest succeeded")
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "deadbeefcafef00d"
	if err := s.Put(digest, 100, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := s.path(digest, 100)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digest, 100, "k"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not repaired (deleted)")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
}

// FuzzStoreEntry feeds parseEntry arbitrary entry bodies, each sealed
// with its correct sha256 trailer so the fuzzer reaches the key and
// blob length fields. Any input must give an error or a blob that lies
// inside the entry — never a panic.
func FuzzStoreEntry(f *testing.F) {
	s, err := NewStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put("abcdef0123456789", 7, "key", []byte("blob")); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(s.path("abcdef0123456789", 7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[:len(raw)-sha256.Size])
	// Key lengths that wrap negative or overflow off+klen as an int.
	for _, klen := range []uint64{^uint64(9), 1<<63 - 4} {
		body := binary.LittleEndian.AppendUint64(storeMagic[:], klen)
		f.Add(append(body, make([]byte, 16)...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		entry := append(body[:len(body):len(body)], sum[:]...)
		blob, err := parseEntry(entry, "")
		if err == nil && len(blob) > len(body) {
			t.Fatalf("blob of %d bytes from a %d-byte body", len(blob), len(body))
		}
	})
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	// Cap small enough that only ~2 of the 4 entries fit.
	blob := make([]byte, 1024)
	s, err := NewStore(dir, 2600)
	if err != nil {
		t.Fatal(err)
	}
	digests := []string{"aa11", "bb22", "cc33", "dd44"}
	for i, d := range digests {
		if err := s.Put(d+"0000000000000000", int64(i*100), "k", blob); err != nil {
			t.Fatal(err)
		}
		// Space the mtimes out so oldest-first is well defined even on
		// coarse filesystem timestamp granularity.
		path := s.path(d+"0000000000000000", int64(i*100))
		mt := time.Unix(1700000000+int64(i)*3600, 0)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// One more write triggers eviction of the oldest entries.
	if err := s.Put("ee550000000000000000", 400, "k", blob); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Bytes > 2600 {
		t.Errorf("store size %d exceeds cap", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Error("nothing evicted")
	}
	// The newest write must survive.
	if _, ok := s.Get("ee550000000000000000", 400, "k"); !ok {
		t.Error("newest entry evicted")
	}
	// No stray temp files.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", ".snap-*"))
	if len(matches) != 0 {
		t.Errorf("stray temp files: %v", matches)
	}
}

// Codec fixtures: one registered struct per shape the walker handles.
type codecEmbed struct{ E uint32 }

type codecInner struct {
	A int16
	B []bool
}

type codecNested struct {
	codecEmbed
	In   codecInner
	Skip int
}

type codecShape interface{ area() int }

type codecSquare struct{ Side int }

func (s *codecSquare) area() int { return s.Side * s.Side }

type codecHolder struct{ S codecShape }

// codecRing is a FIFO ring whose hook writes it in order and restores
// it head-normalized, the shape of the fabrics' queue hooks.
type codecRing struct {
	buf     []int64
	head, n int
}

func (q *codecRing) EncodeSnap(w *Writer) {
	w.U32(uint32(q.n))
	for i := 0; i < q.n; i++ {
		Encode(w, &q.buf[(q.head+i)%len(q.buf)])
	}
}

func (q *codecRing) DecodeSnap(r *Reader) {
	q.head, q.n = 0, int(r.U32())
	if q.n > len(q.buf) {
		r.Failf("ring overflow")
		return
	}
	for i := 0; i < q.n; i++ {
		Decode(r, &q.buf[i])
	}
}

// codecWrapped embeds the ring and promotes its hook: the hook runs
// once, when the embedded field is encoded.
type codecWrapped struct {
	codecRing
	Tag uint8
}

// codecOverride embeds the ring and declares a hook of its own, which
// runs after the fields (the ring's hook included).
type codecOverride struct {
	codecRing
	sum int64
}

func (o *codecOverride) EncodeSnap(w *Writer) {}

func (o *codecOverride) DecodeSnap(r *Reader) {
	o.sum = 0
	for _, v := range o.buf[:o.n] {
		o.sum += v
	}
}

type codecBadFunc struct{ f func() }

type codecBadIface struct {
	x interface{ neverImplemented() }
}

func init() {
	Cover(codecEmbed{}, Coverage{Serialized: []string{"E"}})
	Cover(codecInner{}, Coverage{Serialized: []string{"B", "A"}})
	Cover(codecNested{}, Coverage{
		Serialized: []string{"In", "codecEmbed"},
		Waived:     map[string]string{"Skip": "test fixture"},
	})
	Cover(codecSquare{}, Coverage{Serialized: []string{"Side"}})
	Cover(codecHolder{}, Coverage{Serialized: []string{"S"}})
	Cover(codecRing{}, Coverage{Waived: map[string]string{
		"buf": "hook: in FIFO order", "head": "hook: normalized", "n": "hook: the count",
	}})
	Cover(codecWrapped{}, Coverage{Serialized: []string{"codecRing", "Tag"}})
	Cover(codecOverride{}, Coverage{
		Serialized: []string{"codecRing"},
		Waived:     map[string]string{"sum": "hook: derived from the ring"},
	})
	Cover(codecBadFunc{}, Coverage{Serialized: []string{"f"}})
	Cover(codecBadIface{}, Coverage{Serialized: []string{"x"}})
}

func ptr[T any](v T) *T { return &v }

// TestCodecRoundTrip encodes one value of every supported kind and
// decodes it into what construction would have built: want (src when
// nil) must come back, from exactly size bytes when size is set.
func TestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		src, dst any
		want     any
		size     int
	}{
		{"int8", ptr(int8(-7)), new(int8), nil, 1},
		{"int16", ptr(int16(-300)), new(int16), nil, 2},
		{"int32", ptr(int32(-70000)), new(int32), nil, 4},
		{"int64", ptr(int64(-1 << 40)), new(int64), nil, 8},
		{"int", ptr(-12345), new(int), nil, 8},
		{"uint8", ptr(uint8(200)), new(uint8), nil, 1},
		{"uint16", ptr(uint16(60000)), new(uint16), nil, 2},
		{"uint32", ptr(uint32(1 << 31)), new(uint32), nil, 4},
		{"uint64", ptr(uint64(1<<63 + 5)), new(uint64), nil, 8},
		{"uint", ptr(uint(99)), new(uint), nil, 8},
		{"bool", ptr(true), new(bool), nil, 1},
		{"float32", ptr(float32(-1.5)), new(float32), nil, 4},
		{"float64", ptr(3.25), new(float64), nil, 8},
		{"string", ptr("hello"), new(string), nil, 9},
		{"bools packed", ptr([]bool{true, false, true, true, false, false, false, false, true, true}), new([]bool), nil, 4 + 2},
		{"array", ptr([3]uint64{1, 2, 3}), new([3]uint64), nil, 24},
		{"array of structs", ptr([2]codecInner{{A: 1}, {A: 2, B: []bool{true}}}), new([2]codecInner), nil, 0},
		{"fixed slice", ptr([]int32{4, 5, 6}), ptr(make([]int32, 3)), nil, 4 + 12},
		{"growable slice", ptr([]float64{1.5, -2}), new([]float64), nil, 4 + 16},
		{"growable slice of structs", ptr([]codecInner{{A: 9, B: []bool{false, true}}}), new([]codecInner), nil, 0},
		{"sorted map", ptr(map[int64]uint8{-3: 1, 7: 2, 0: 3}), new(map[int64]uint8), nil, 4 + 3*9},
		{"nested and embedded", &codecNested{codecEmbed{7}, codecInner{-2, []bool{true}}, 5}, &codecNested{Skip: 1},
			&codecNested{codecEmbed{7}, codecInner{-2, []bool{true}}, 1}, 0},
		{"pointer", ptr(&codecSquare{Side: 4}), ptr(&codecSquare{}), nil, 1 + 8},
		{"interface", &codecHolder{S: &codecSquare{Side: 3}}, &codecHolder{S: &codecSquare{}}, nil, 0},
		{"hook", &codecRing{buf: []int64{30, 40, 10, 20}, head: 2, n: 3}, &codecRing{buf: make([]int64, 4)},
			&codecRing{buf: []int64{10, 20, 30, 0}, n: 3}, 4 + 24},
		{"embedded hook runs once", &codecWrapped{codecRing{buf: []int64{5, 6}, head: 1, n: 2}, 9},
			&codecWrapped{codecRing: codecRing{buf: make([]int64, 2)}},
			&codecWrapped{codecRing{buf: []int64{6, 5}, n: 2}, 9}, 4 + 16 + 1},
		{"own hook beside an embedded one", &codecOverride{codecRing: codecRing{buf: []int64{5, 6}, n: 2}},
			&codecOverride{codecRing: codecRing{buf: make([]int64, 2)}},
			&codecOverride{codecRing{buf: []int64{5, 6}, n: 2}, 11}, 4 + 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := NewWriter()
			Encode(w, c.src)
			if got := w.Len() - NewWriter().Len(); c.size != 0 && got != c.size {
				t.Errorf("encoded %d bytes, want %d", got, c.size)
			}
			r, err := NewReader(w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			Decode(r, c.dst)
			if r.Err() != nil || r.Rest() != 0 {
				t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Rest())
			}
			want := c.want
			if want == nil {
				want = c.src
			}
			if !reflect.DeepEqual(c.dst, want) {
				t.Errorf("decoded %+v, want %+v", c.dst, want)
			}
		})
	}
	// A map encodes in key order, whatever order iteration visits.
	m := map[uint64]int{}
	for i := 0; i < 64; i++ {
		m[uint64(i*7919)] = i
	}
	first := NewWriter()
	Encode(first, &m)
	for i := 0; i < 8; i++ {
		w := NewWriter()
		Encode(w, &m)
		if !reflect.DeepEqual(w.Bytes(), first.Bytes()) {
			t.Fatal("map encoding depends on iteration order")
		}
	}
}

// TestCodecRejects covers what the codec refuses: a serialized field
// it cannot encode (reported by Verify), and a decode that would break
// a construction-fixed shape or grow past the remaining input.
func TestCodecRejects(t *testing.T) {
	got := Verify(VerifyOptions{PkgPrefix: "nocsim/internal/snap"}, codecBadFunc{}, codecBadIface{})
	if len(got) != 2 || !strings.Contains(got[0], "codecBadFunc.f") || !strings.Contains(got[1], "codecBadIface.x") {
		t.Errorf("Verify = %q, want the func and the hookless interface reported", got)
	}

	decode := func(build func(w *Writer), dst any) error {
		w := NewWriter()
		build(w)
		r, err := NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		Decode(r, dst)
		return r.Err()
	}
	fixed := make([]int32, 2)
	if err := decode(func(w *Writer) { Encode(w, &[]int32{1, 2, 3}) }, &fixed); err == nil || !strings.Contains(err.Error(), "fixed at 2") {
		t.Errorf("fixed-shape mismatch: %v", err)
	}
	var grow []int64
	if err := decode(func(w *Writer) { w.U32(1 << 20); w.U32(0) }, &grow); err == nil || grow != nil {
		t.Errorf("growth past the input: err %v, slice grew to %d", err, len(grow))
	}
	var m map[uint64]int
	if err := decode(func(w *Writer) { w.U32(1 << 20) }, &m); err == nil || m != nil {
		t.Errorf("map growth past the input: err %v, map of %d", err, len(m))
	}
}
