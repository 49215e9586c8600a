package main

import "syscall"

// hostRef is the host-speed reference: a fixed kernel of the benchmark's
// own, timed between stretches of ops in the same process. On a shared
// host the same program and inputs run a fifth faster or slower for
// minutes at a time, and drift the kernel shares with the program
// cancels in their ratio. The kernel sweeps and then randomly updates an
// 8 MB table, past a core's L2, so it feels the shared-cache and memory
// contention that slows the simulator; a sha256 loop tracked that drift
// less well. No code of the repository runs in it, so a change to
// the program never moves it. The table lives outside the Go heap, so it
// leaves the program's garbage collection as it was, and the reported
// peak RSS leaves it out.
type hostRef struct {
	table []byte
	ms    []float64
}

const (
	refBytes = 8 << 20
	// refNominalMS is the kernel's time on a quiet host, the speed the
	// normalized metrics are given at.
	refNominalMS = 24.0
	// refEvery is the host time of ops between two kernel runs.
	refEvery = 1.0
)

func newHostRef() (*hostRef, error) {
	b, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostRef{table: b}
	h.measure() // the first run pays the table's page faults
	h.ms = h.ms[:0]
	return h, nil
}

// measure runs the kernel once and returns its host time in ms.
func (h *hostRef) measure() float64 {
	t := now()
	for i := range h.table {
		h.table[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	x, s := uint32(1), uint32(0)
	for k := 0; k < 2_000_000; k++ {
		x = x*1664525 + 1013904223
		j := x >> 9 & (refBytes - 1)
		s += uint32(h.table[j])
		h.table[j] = byte(s ^ x)
	}
	ms := since(t) * 1e3
	h.ms = append(h.ms, ms)
	return ms
}

// normalize converts host seconds spent between two kernel runs that
// took a and b ms into seconds at the nominal host speed.
func normalize(secs, a, b float64) float64 { return secs * refNominalMS * 2 / (a + b) }

func (h *hostRef) close() { syscall.Munmap(h.table) }
