// Package cache models the memory-side substrates of the simulated CMP:
// the private per-core L1 cache (Table 2: 128 KB, 4-way, 32-byte blocks,
// LRU) and the mapping of L1 misses to the shared distributed L2 slice
// that services them — either per-block XOR interleaving across all
// nodes (the paper's default) or the randomized exponential-locality
// model of §3.2 (with a power-law alternative) used for the scalability
// studies. The shared L2 itself is perfect (Table 2), so every miss is
// serviced by its home node without going to memory.
package cache

import (
	"fmt"
	"math/bits"
)

// L1Config describes a private L1 cache.
type L1Config struct {
	// SizeBytes is total capacity; 0 means 128 KiB.
	SizeBytes int
	// Ways is the associativity; 0 means 4.
	Ways int
	// BlockBytes is the line size; 0 means 32. Must be a power of two.
	BlockBytes int
}

func (c *L1Config) setDefaults() {
	if c.SizeBytes == 0 {
		c.SizeBytes = 128 << 10
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 32
	}
}

// L1 is a set-associative write-allocate cache with true-LRU replacement,
// laid out for the addresses trace.Generator emits. It models hit/miss
// behaviour only; data values are not stored.
//
// The layout: a core references a run of consecutive hot blocks, which
// it revisits, and a stream of consecutive blocks from a stream base
// above them, each referenced once and in order. Only the
// min(len(hot), sets) sets a hot block maps to can ever hold a block
// that is referenced twice, so only they keep line words. Each line is
// one word, tag<<shift | rank<<2 | dirty<<1 | valid. The tag is the
// block address without its set bits, which the line's position
// implies. The rank is the line's LRU position within its set, 0 for
// the most recently used way and ways-1 for the least; the ranks of a
// set are always a permutation of 0..ways-1, invalid ways included.
//
// Every other set sees only stream blocks, which arrive round-robin
// and never hit, so LRU there is FIFO: stream block j evicts stream
// block j - sets*ways. Those sets' whole state is the stream counter
// and one dirty bit per recent stream block. A hot block may still be
// evicted from its set by the stream blocks that share it.
type L1 struct {
	ways      int
	blockBits uint
	setBits   uint
	setMask   uint64
	shift     uint // tag position: 2 + bits to hold ways-1

	hotBlock    uint64 // first hot block
	hotBlocks   uint64
	hotSet      uint64 // set of the first hot block
	hotSets     uint64 // sets with line words, from hotSet on (mod sets)
	streamBlock uint64 // first stream block
	fifoSpan    uint64 // sets*ways: stream block j evicts j - fifoSpan
	ringMask    uint64 // dirty bit of stream block j: bit j&ringMask of dirty

	lines    []uint64 // hotSets*ways line words, set-major from hotSet
	streamed uint64   // stream blocks referenced so far
	dirty    []uint64
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	rankShift = 2
)

// NewL1 builds an L1 cache for a core whose hot blocks are those of the
// hot addresses, which must be consecutive blocks, and whose stream
// starts at streamBase, at or above the last hot block. It panics on
// non-power-of-two geometry, on a geometry whose block and set bits
// cannot hold the rank field (the packed tag would then drop high
// address bits), and on a layout that breaks those rules.
func NewL1(cfg L1Config, hot []uint64, streamBase uint64) *L1 {
	cfg.setDefaults()
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks == 0 || blocks%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d-way / %dB blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockBytes))
	}
	sets := blocks / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	bb := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	sb := uint(bits.TrailingZeros(uint(sets)))
	shift := rankShift + uint(bits.Len(uint(cfg.Ways-1)))
	if bb+sb < shift {
		panic(fmt.Sprintf("cache: %d block+set bits cannot hold a %d-bit line state (%d bytes / %d-way / %dB blocks)",
			bb+sb, shift, cfg.SizeBytes, cfg.Ways, cfg.BlockBytes))
	}
	if len(hot) == 0 {
		panic("cache: an L1 needs at least one hot block")
	}
	hotBlock := hot[0] >> bb
	for i, a := range hot {
		if a>>bb != hotBlock+uint64(i) {
			panic(fmt.Sprintf("cache: hot address %d (%#x) is not block %d of a consecutive run from %#x",
				i, a, i, hot[0]))
		}
	}
	if streamBase>>bb < hotBlock+uint64(len(hot)) {
		panic(fmt.Sprintf("cache: stream base %#x lies below the last hot block", streamBase))
	}
	hotSets := min(len(hot), sets)
	lines := make([]uint64, hotSets*cfg.Ways)
	for i := range lines {
		lines[i] = uint64(i%cfg.Ways) << rankShift
	}
	ring := uint64(1) << bits.Len(uint(blocks-1))
	return &L1{
		ways:        cfg.Ways,
		blockBits:   bb,
		setBits:     sb,
		setMask:     uint64(sets - 1),
		shift:       shift,
		hotBlock:    hotBlock,
		hotBlocks:   uint64(len(hot)),
		hotSet:      hotBlock & uint64(sets-1),
		hotSets:     uint64(hotSets),
		streamBlock: streamBase >> bb,
		fifoSpan:    uint64(blocks),
		ringMask:    ring - 1,
		lines:       lines,
		dirty:       make([]uint64, (ring+63)/64),
	}
}

// AccessRW looks up addr, allocating on miss. write marks the line
// dirty (write-allocate, write-back). When a miss evicts a dirty line,
// wb is true and wbAddr is the evicted block's address — the simulator
// turns it into a one-way writeback packet to the block's home slice.
//
// A miss fills the last invalid way of the set, or the LRU way when
// every way is valid. addr must be a hot block or the next stream
// block; anything else breaks the layout the L1 keeps state for, and
// AccessRW panics.
func (c *L1) AccessRW(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	block := addr >> c.blockBits
	set := block & c.setMask
	if block-c.hotBlock >= c.hotBlocks {
		j := block - c.streamBlock
		if j != c.streamed {
			panic(fmt.Sprintf("cache: block %#x is neither a hot block nor the next stream block %#x",
				block, c.streamBlock+c.streamed))
		}
		c.streamed++
		if (set-c.hotSet)&c.setMask >= c.hotSets {
			wbAddr, wb = c.fifo(j, write)
			return false, wbAddr, wb
		}
	}
	base := int((set-c.hotSet)&c.setMask) * c.ways
	lines := c.lines[base : base+c.ways : base+c.ways]
	want := block>>c.setBits<<c.shift | lineValid
	ranks := c.ranks()
	state := ranks | lineDirty
	lru := uint64(len(lines)-1) << rankShift
	victim, oldest := -1, -1
	for i, l := range lines {
		if l&^state == want {
			c.touch(lines, i)
			if write {
				lines[i] |= lineDirty
			}
			return true, 0, false
		}
		if l&lineValid == 0 {
			victim = i
		} else if l&ranks == lru {
			oldest = i
		}
	}
	if victim < 0 {
		victim = oldest
	}
	if old := lines[victim]; old&(lineValid|lineDirty) == lineValid|lineDirty {
		wb = true
		wbAddr = (old>>c.shift<<c.setBits | set) << c.blockBits
	}
	c.touch(lines, victim)
	if write {
		want |= lineDirty
	}
	lines[victim] = want
	return false, wbAddr, wb
}

// fifo inserts stream block j into a set no hot block maps to. The
// set's earlier blocks are the stream blocks j - k*sets*ways, so the
// oldest of its ways holds j - sets*ways once the stream has filled it.
func (c *L1) fifo(j uint64, write bool) (wbAddr uint64, wb bool) {
	if j >= c.fifoSpan {
		old := j - c.fifoSpan
		if i := old & c.ringMask; c.dirty[i>>6]>>(i&63)&1 != 0 {
			wb = true
			wbAddr = (c.streamBlock + old) << c.blockBits
		}
	}
	i := j & c.ringMask
	if write {
		c.dirty[i>>6] |= 1 << (i & 63)
	} else {
		c.dirty[i>>6] &^= 1 << (i & 63)
	}
	return wbAddr, wb
}

// touch makes way i of a set's lines the MRU way: every way more recent
// than it moves one rank down, and it takes rank 0.
func (c *L1) touch(lines []uint64, i int) {
	ranks := c.ranks()
	r := lines[i] & ranks
	if r == 0 {
		return
	}
	for j, l := range lines {
		if l&ranks < r {
			lines[j] = l + 1<<rankShift
		}
	}
	lines[i] &^= ranks
}

// ranks is the mask of a line word's rank field.
func (c *L1) ranks() uint64 { return uint64(1)<<c.shift - 1<<rankShift }

// Warm inserts addr's block as a load and drops the outcome; used to
// preload the hot blocks so measurements start from a warm cache.
func (c *L1) Warm(addr uint64) { c.AccessRW(addr, false) }

// Expects reports whether AccessRW takes addr now — a hot block or the
// next stream block — and whether it is that stream block.
func (c *L1) Expects(addr uint64) (ok, stream bool) {
	block := addr >> c.blockBits
	if block-c.hotBlock < c.hotBlocks {
		return true, false
	}
	next := block-c.streamBlock == c.streamed
	return next, next
}

// Streamed returns the number of stream blocks referenced so far.
func (c *L1) Streamed() uint64 { return c.streamed }
