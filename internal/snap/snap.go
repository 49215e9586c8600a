// Package snap is the deterministic binary codec behind warm-start
// checkpoints: a snapshot of a simulation is a byte string that depends
// only on the simulated state — never on pointer values, map iteration
// order, or allocation history — so the same
// (config, cycle) pair always encodes to the same bytes and a restored
// simulation replays the original cycle-for-cycle.
//
// The package has three parts:
//
//   - Writer/Reader: little-endian primitives with a tag-framing
//     discipline (every logical section starts with a one-byte tag
//     behind a sentinel byte) so a decoder that drifts out of sync
//     fails loudly at the next section boundary instead of silently
//     misreading state.
//
//   - the coverage registry (Cover / Verify): every snapshottable
//     struct declares, field by field, whether the field is serialized
//     or waived (with a reason). A reflection walk over the reachable
//     type graph fails when any field of any state struct is neither —
//     the codec cannot silently rot as fabrics grow.
//
//   - Store: a content-addressed on-disk checkpoint store with
//     crash-safe temp+rename writes, longest-prefix lookup per config
//     digest, size-capped oldest-first eviction, and corrupt-entry
//     detection via a whole-file checksum.
//
// The codec deliberately lives outside every fabric's Step path:
// Snapshot and Restore run only in sequential regions (between Step
// calls), so serialization adds nothing to the hot path.
package snap

import (
	"fmt"
	"math"
)

// Version is the codec version; bump on any incompatible layout change.
const Version = 1

// magic prefixes every snapshot blob.
var magic = [8]byte{'N', 'O', 'C', 'S', 'N', 'A', 'P', '1'}

// sentinel precedes every section tag; a reader that lands anywhere
// else in the byte stream will almost never see it, which turns codec
// drift into an immediate decode error.
const sentinel = 0xA7

// Writer appends little-endian primitives to a growing buffer. The
// zero Writer is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the standard blob header (magic +
// version) already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magic[:]...)
	w.U32(Version)
	return w
}

// Bytes returns the encoded blob. The slice aliases the writer's
// buffer and is valid until the next write.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern, little-endian.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Blob writes a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Tag opens a new section: sentinel byte + one-byte tag. Readers
// consume it with Expect.
func (w *Writer) Tag(t uint8) {
	w.buf = append(w.buf, sentinel, t)
}

// Reader decodes a blob written by Writer. Errors are sticky: after
// the first failure every subsequent read returns zero values and Err
// reports the original error, so decode loops need a single check at
// the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader checks the blob header (magic + version) and positions the
// reader after it.
func NewReader(b []byte) (*Reader, error) {
	r := &Reader{buf: b}
	if len(b) < len(magic)+4 || string(b[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("snap: bad magic (not a snapshot blob)")
	}
	r.off = len(magic)
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("snap: version %d, want %d", v, Version)
	}
	return r, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a decode error from the caller (a semantic mismatch —
// e.g. a config-derived size that disagrees with the blob). Like
// internal errors it is sticky: the first failure wins.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(format, args...)
}

// Rest returns the number of unread bytes.
func (r *Reader) Rest() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format+" at offset %d", append(args, r.off)...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated blob (need %d bytes)", n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Blob reads a length-prefixed byte string. The slice aliases the
// reader's buffer.
func (r *Reader) Blob() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("blob length %d exceeds remaining input", n)
		return nil
	}
	return r.take(int(n))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Blob()) }

// Expect consumes a section tag and fails unless it matches t.
func (r *Reader) Expect(t uint8) {
	s := r.U8()
	got := r.U8()
	if r.err != nil {
		return
	}
	if s != sentinel {
		r.fail("lost framing: sentinel %#x, want %#x (section %#x)", s, sentinel, t)
		return
	}
	if got != t {
		r.fail("section tag %#x, want %#x", got, t)
	}
}
