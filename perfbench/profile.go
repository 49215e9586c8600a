package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Layers inside Sim.Step (fabric, cores, L1, trace generator, controller)
// have no public seam to wrap in a span, so the traced run attributes
// them from a CPU profile: every sample is charged to the innermost
// frame that belongs to a layer — a package of this repository, or one
// of the standard-library layers the service path leans on (encoding/json,
// net/http, crypto/sha256). Samples with no such frame (GC workers,
// the scheduler) are charged to "runtime".

// cpuProfile records a CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("perfbench: starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU nanoseconds per layer bucket.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("perfbench: opening CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: reading CPU profile: %w", err)
	}
	return bucketProfile(raw)
}

// layerOf maps a symbol to its layer bucket, or "" for frames that are
// charged to their caller (runtime, reflect, the rest of the standard
// library).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "nocsim/perfbench" || pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "nocsim/internal/"):
		rel := strings.TrimPrefix(pkg, "nocsim/internal/")
		return rel[strings.LastIndex(rel, "/")+1:]
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || pkg == "net" || strings.HasPrefix(pkg, "net/http/") || pkg == "net/textproto":
		return "http"
	case pkg == "crypto/sha256" || strings.HasPrefix(pkg, "crypto/internal/fips140/sha256"):
		return "sha256"
	}
	return ""
}

// bucketProfile decodes an uncompressed profile.proto message and sums
// the CPU-nanoseconds value of every sample into its layer bucket.
func bucketProfile(raw []byte) (map[string]float64, error) {
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []pbSample
	)
	err := pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		bucket := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				idx := funcs[fid]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := layerOf(strs[idx]); l != "" {
					bucket = l
					break walk
				}
			}
		}
		out[bucket] += float64(s.values[1])
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	err := pbFields(b, func(f int, v uint64, pb []byte) error {
		switch f {
		case 1, 2:
			var vals []uint64
			if pb == nil {
				vals = []uint64{v}
			} else {
				for len(pb) > 0 {
					x, n := pbVarint(pb)
					if n <= 0 {
						return fmt.Errorf("perfbench: bad packed varint in profile")
					}
					vals = append(vals, x)
					pb = pb[n:]
				}
			}
			for _, x := range vals {
				if f == 1 {
					s.locs = append(s.locs, x)
				} else {
					s.values = append(s.values, int64(x))
				}
			}
		}
		return nil
	})
	return s, err
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// payload.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return fmt.Errorf("perfbench: bad field key in profile")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n <= 0 {
				return fmt.Errorf("perfbench: bad varint in profile")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("perfbench: truncated profile")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("perfbench: truncated profile")
			}
			b := msg[n : n+int(l)] // non-nil even when empty: marks a payload
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("perfbench: truncated profile")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("perfbench: unknown wire type %d in profile", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
