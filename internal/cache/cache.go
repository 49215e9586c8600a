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

// L1 is a set-associative write-allocate cache with true-LRU replacement.
// It models hit/miss behaviour only; data values are not stored.
//
// Each line is one word, tag<<shift | rank<<2 | dirty<<1 | valid. The
// tag is the block address without its set bits, which the line's
// position implies. The rank is the line's LRU position within its set,
// 0 for the most recently used way and ways-1 for the least; the ranks
// of a set are always a permutation of 0..ways-1, invalid ways included.
type L1 struct {
	sets      int
	ways      int
	blockBits uint
	setBits   uint
	setMask   uint64
	shift     uint     // tag position: 2 + bits to hold ways-1
	lines     []uint64 // sets*ways line words, set-major

	hits, misses, writebacks int64
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	rankShift = 2
)

// NewL1 builds an L1 cache. It panics on non-power-of-two geometry and
// on a geometry whose block and set bits cannot hold the rank field, as
// the packed tag would then drop high address bits.
func NewL1(cfg L1Config) *L1 {
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
	lines := make([]uint64, blocks)
	for i := range lines {
		lines[i] = uint64(i%cfg.Ways) << rankShift
	}
	return &L1{
		sets:      sets,
		ways:      cfg.Ways,
		blockBits: bb,
		setBits:   sb,
		setMask:   uint64(sets - 1),
		shift:     shift,
		lines:     lines,
	}
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

// BlockBytes returns the line size.
func (c *L1) BlockBytes() int { return 1 << c.blockBits }

// Block returns the block address (address with offset bits dropped).
func (c *L1) Block(addr uint64) uint64 { return addr >> c.blockBits }

// Access looks up addr as a load, allocating on miss, and reports
// whether it hit. Evicted dirty blocks are dropped (use AccessRW to
// observe writebacks).
func (c *L1) Access(addr uint64) bool {
	hit, _, _ := c.AccessRW(addr, false)
	return hit
}

// AccessRW looks up addr, allocating on miss. write marks the line
// dirty (write-allocate, write-back). When a miss evicts a dirty line,
// wb is true and wbAddr is the evicted block's address — the simulator
// turns it into a one-way writeback packet to the block's home slice.
//
// A miss fills the last invalid way of the set, or the LRU way when
// every way is valid.
func (c *L1) AccessRW(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	block := addr >> c.blockBits
	set := block & c.setMask
	base := int(set) * c.ways
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
			c.hits++
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
	c.misses++
	if old := lines[victim]; old&(lineValid|lineDirty) == lineValid|lineDirty {
		wb = true
		wbAddr = (old>>c.shift<<c.setBits | set) << c.blockBits
		c.writebacks++
	}
	c.touch(lines, victim)
	if write {
		want |= lineDirty
	}
	lines[victim] = want
	return false, wbAddr, wb
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

// Warm inserts addr's block without touching the hit/miss counters;
// used to preload a working set so measurements start from a warm cache.
func (c *L1) Warm(addr uint64) {
	h, m, w := c.hits, c.misses, c.writebacks
	c.Access(addr)
	c.hits, c.misses, c.writebacks = h, m, w
}

// Probe reports whether addr is resident without updating LRU state or
// allocating.
func (c *L1) Probe(addr uint64) bool {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	want := block>>c.setBits<<c.shift | lineValid
	state := c.ranks() | lineDirty
	for _, l := range c.lines[base : base+c.ways] {
		if l&^state == want {
			return true
		}
	}
	return false
}

// Hits returns the number of hits observed.
func (c *L1) Hits() int64 { return c.hits }

// Misses returns the number of misses observed.
func (c *L1) Misses() int64 { return c.misses }

// Writebacks returns the number of dirty evictions observed.
func (c *L1) Writebacks() int64 { return c.writebacks }

// MissRate returns misses / accesses.
func (c *L1) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset clears contents and counters. Only the valid and dirty bits
// are cleared: an invalid line never hits, and the ranks stay a
// permutation.
func (c *L1) Reset() {
	for i := range c.lines {
		c.lines[i] &^= lineValid | lineDirty
	}
	c.hits, c.misses, c.writebacks = 0, 0, 0
}
