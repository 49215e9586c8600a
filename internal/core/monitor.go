// Package core implements the paper's primary contribution: the
// application-aware, starvation-driven source-throttling congestion
// control mechanism for bufferless NoCs (§5), together with the static
// throttling used in §3.1/Fig. 5 and the distributed "TCP-like"
// comparison controller of §6.6.
//
// The mechanism has three parts, mapped one-to-one onto the paper's
// algorithms:
//
//   - Monitor (Algorithm 2, per-node hardware): a W-cycle shift window
//     of starved bits whose running sum yields the starvation rate σ.
//   - Throttler (Algorithm 3, per-node hardware): a deterministic
//     injection gate that blocks a configured fraction of injection
//     opportunities.
//   - Controller (Algorithm 1, software, centrally coordinated): every
//     T cycles it collects each node's σ and IPF (instructions per
//     flit), decides whether the network is congested, and sets each
//     node's throttling rate — only nodes with below-average IPF (the
//     network-intensive applications) are throttled, and harder the
//     more intensive they are.
package core

import "math/bits"

// DefaultWindow is W, the starvation-rate window in cycles (§6.1).
const DefaultWindow = 128

// Monitor is the per-node starvation-rate instrument of Algorithm 2:
// sigma[i] = (1/W) * sum over the last W cycles of starved(i).
//
// Hardware cost (§6.5): a W-bit shift register and an up-down counter
// per node. With W=128 that is 128 bits of storage; together with the
// Throttler's 7-bit free-running counter and 14-bit rate register this
// is the paper's "149 bits, two counters and a comparator".
//
// Tick must be called once per node per cycle. Distinct nodes may be
// ticked concurrently.
type Monitor struct {
	window int
	words  int // 64-bit words per node
	bits   []uint64
	sums   []int32
	pos    []int32
}

// NewMonitor creates a Monitor for n nodes with the given window size
// (0 means DefaultWindow). Window must be a multiple of 64.
func NewMonitor(n, window int) *Monitor {
	if window == 0 {
		window = DefaultWindow
	}
	if window <= 0 || window%64 != 0 {
		panic("core: monitor window must be a positive multiple of 64")
	}
	words := window / 64
	return &Monitor{
		window: window,
		words:  words,
		bits:   make([]uint64, n*words),
		sums:   make([]int32, n),
		pos:    make([]int32, n),
	}
}

// Window returns W.
func (m *Monitor) Window() int { return m.window }

// Nodes returns the node count.
func (m *Monitor) Nodes() int { return len(m.sums) }

// Tick records whether node was starved this cycle (wanted to inject
// but could not), aging out the bit from W cycles ago. It is
// branch-free in the starvation bits: the old bit is taken out, the new
// one put in, and the sum moves by their difference, so the
// unpredictable starved pattern costs no mispredictions.
func (m *Monitor) Tick(node int, starved bool) {
	p := uint(m.pos[node])
	w := &m.bits[uint(node)*uint(m.words)+p/64]
	off := p % 64
	old := *w >> off & 1
	var nw uint64
	if starved {
		nw = 1
	}
	*w ^= (old ^ nw) << off
	m.sums[node] += int32(nw) - int32(old)
	p++
	if p == uint(m.window) {
		p = 0
	}
	m.pos[node] = int32(p)
}

// TickIdle advances node's window by k consecutive not-starved cycles
// in one call, producing exactly the state k individual
// Tick(node, false) calls would: the k positions starting at the
// write cursor are cleared (adjusting the running sum by their old
// bits) and the cursor advances k mod W. Active-set fabrics use it to
// fast-forward nodes they skipped while idle; a skipped node is by
// definition one with nothing to inject, i.e. not starved.
func (m *Monitor) TickIdle(node int, k int64) {
	if k <= 0 {
		return
	}
	base := node * m.words
	if k >= int64(m.window) {
		// Every window bit is overwritten by a zero; only the cursor's
		// final phase survives.
		for w := 0; w < m.words; w++ {
			m.bits[base+w] = 0
		}
		m.sums[node] = 0
		m.pos[node] = int32((int64(m.pos[node]) + k) % int64(m.window))
		return
	}
	p := int(m.pos[node])
	n := int(k)
	for n > 0 {
		word := base + p/64
		off := p % 64
		span := 64 - off
		if span > n {
			span = n
		}
		mask := ^uint64(0)
		if span < 64 {
			mask = ((uint64(1) << uint(span)) - 1) << uint(off)
		}
		if cleared := m.bits[word] & mask; cleared != 0 {
			m.sums[node] -= int32(bits.OnesCount64(cleared))
			m.bits[word] &^= mask
		}
		p += span
		if p == m.window {
			p = 0
		}
		n -= span
	}
	m.pos[node] = int32(p)
}

// Rate returns node's current starvation rate sigma in [0,1].
func (m *Monitor) Rate(node int) float64 {
	return float64(m.sums[node]) / float64(m.window)
}

// Rates appends all nodes' starvation rates to buf and returns it.
func (m *Monitor) Rates(buf []float64) []float64 {
	for i := range m.sums {
		buf = append(buf, m.Rate(i))
	}
	return buf
}

// Reset clears all windows.
func (m *Monitor) Reset() {
	for i := range m.bits {
		m.bits[i] = 0
	}
	for i := range m.sums {
		m.sums[i] = 0
		m.pos[i] = 0
	}
}

// HardwareBitsPerNode is the per-node storage cost of the full
// mechanism as itemised in §6.5: the W-bit starvation window (W=128),
// the 7-bit free-running injection counter, and a 14-bit throttling-rate
// register — 149 bits, two counters, and one comparator.
const HardwareBitsPerNode = DefaultWindow + 7 + 14
