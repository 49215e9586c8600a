// Package snap is the deterministic binary codec behind warm-start
// checkpoints: a snapshot of a simulation is a byte string that depends
// only on the simulated state — never on pointer values, map iteration
// order, or allocation history — so the same
// (config, cycle) pair always encodes to the same bytes and a restored
// simulation replays the original cycle-for-cycle.
//
// The package has four parts:
//
//   - Writer/Reader: little-endian primitives behind a blob header
//     (magic + version), with sticky errors so a decode needs one check
//     at the end.
//
//   - the coverage registry (Cover / Verify): every snapshottable
//     struct declares, field by field, whether the field is serialized
//     or waived (with a reason). A reflection walk over the reachable
//     type graph fails when any field of any state struct is neither,
//     or when a serialized field is of a kind the codec cannot encode.
//
//   - Store: a content-addressed on-disk checkpoint store with
//     crash-safe temp+rename writes, longest-prefix lookup per config
//     digest, size-capped oldest-first eviction, and corrupt-entry
//     detection via a whole-file checksum.
//
//   - Encode/Decode: the codec itself. The Serialized list of each
//     registered struct is its encoding, walked in list order by a
//     per-type plan compiled once; types whose encoding is more than
//     their field list add Encoder/Decoder hooks (see codec.go).
//
// The codec deliberately lives outside every fabric's Step path:
// Snapshot and Restore run only in sequential regions (between Step
// calls), so serialization adds nothing to the hot path.
package snap

import "fmt"

// Version is the codec version; bump on any incompatible layout change.
const Version = 5

// magic prefixes every snapshot blob.
var magic = [8]byte{'N', 'O', 'C', 'S', 'N', 'A', 'P', '1'}

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

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
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

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(int(r.U32()))) }
