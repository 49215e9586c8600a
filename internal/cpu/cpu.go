// Package cpu models the out-of-order processor cores of the simulated
// CMP at the level of detail the paper's closed-loop evaluation needs
// (Table 2: 3-wide issue, one memory instruction per cycle, 128-entry
// instruction window, in-order retirement).
//
// The model captures the property the paper leans on throughout: cores
// are self-throttling (§3.1). An instruction retires only when its data
// has arrived, the window cannot accept new instructions when full, and
// therefore a core can have at most Window outstanding requests before
// it stalls and stops loading the network.
package cpu

import (
	"fmt"

	"nocsim/internal/trace"
)

// MemBackend services the core's memory references. The system simulator
// implements it with the L1 model, the address mapper, and the NoC.
//
// Token contract: a backend numbers one core's misses consecutively in
// the token's low 32 bits (the system simulator's tokens are
// core<<32 | counter). A core has at most Window misses outstanding,
// all issued within its last Window instructions, so the outstanding
// tokens differ in their low log2(pow2(Window)) bits and the core's
// direct-mapped token table never collides. A token that collides, or
// that Complete does not find, panics.
type MemBackend interface {
	// Access issues a memory reference by core; store marks a write.
	// It returns hit=true when the reference hits in the private cache
	// (data ready after the core's hit latency); otherwise it returns a
	// token identifying the outstanding miss, whose data arrives via
	// Core.Complete.
	Access(core int, addr uint64, store bool) (hit bool, token uint64)
}

// Config parameterises a core.
type Config struct {
	// Window is the instruction window size; 0 means 128.
	Window int
	// IssueWidth is instructions issued (and retired) per cycle; 0
	// means 3.
	IssueWidth int
	// MemPerCycle is the memory-instruction issue limit; 0 means 1.
	MemPerCycle int
	// HitLatency is the L1 hit service time in cycles; 0 means 2.
	HitLatency int64
}

func (c *Config) setDefaults() {
	if c.Window == 0 {
		c.Window = 128
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 3
	}
	if c.MemPerCycle == 0 {
		c.MemPerCycle = 1
	}
	if c.HitLatency == 0 {
		c.HitLatency = 2
	}
}

// waiting marks a window entry blocked on an outstanding miss.
const waiting = int64(-1)

// Core is one processor core replaying a trace. The instruction stream
// may come from a live synthetic generator or from a recorded trace
// file (trace.Replay) — anything implementing trace.Source.
type Core struct {
	id      int
	cfg     Config
	gen     trace.Source
	backend MemBackend

	// Window ring: readyAt[i] is the cycle entry i's result is ready, or
	// `waiting` for an outstanding miss.
	readyAt []int64
	head    int
	count   int

	// tokens maps outstanding miss tokens to ring slots.
	tokens tokenTable

	// One-instruction lookahead so a memory instruction that cannot
	// issue this cycle (mem slot used) is not lost.
	pending    trace.Instr
	hasPending bool

	retired int64
	stalled int64 // cycles with zero issue because the window was full
}

// New builds a core with the given id replaying gen through backend.
func New(id int, cfg Config, gen trace.Source, backend MemBackend) *Core {
	cfg.setDefaults()
	return &Core{
		id:      id,
		cfg:     cfg,
		gen:     gen,
		backend: backend,
		readyAt: make([]int64, cfg.Window),
		tokens:  newTokenTable(cfg.Window),
	}
}

// tokenTable maps outstanding miss tokens to window slots. It is
// direct-mapped: token t lives in entry t&mask, and the table has
// pow2(Window) entries, which the MemBackend token contract makes
// collision-free, so a miss costs one indexed store and a completion
// one indexed load, with no hashing. An entry's low bits are implied by
// its index, so they hold the window slot instead (slot < Window <=
// mask+1): an entry is token&^mask | slot, and a bitmap marks the
// entries in use, 8 bytes and a bit per entry.
type tokenTable struct {
	ent  []uint64
	used []uint64
	mask uint64
	n    int
}

func newTokenTable(window int) tokenTable {
	size := 1
	for size < window {
		size <<= 1
	}
	return tokenTable{
		ent:  make([]uint64, size),
		used: make([]uint64, (size+63)/64),
		mask: uint64(size - 1),
	}
}

// put records token as awaited by window slot, which must be at most
// mask. It reports false, and records nothing, if token's entry is
// taken.
func (t *tokenTable) put(token uint64, slot int) bool {
	i := token & t.mask
	w, bit := &t.used[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	t.ent[i] = token&^t.mask | uint64(slot)
	t.n++
	return true
}

// take removes token and returns its window slot, or -1 if token is
// not awaited.
func (t *tokenTable) take(token uint64) int {
	i := token & t.mask
	w, bit := &t.used[i/64], uint64(1)<<(i%64)
	e := t.ent[i]
	if *w&bit == 0 || e&^t.mask != token&^t.mask {
		return -1
	}
	*w &^= bit
	t.n--
	return int(e & t.mask)
}

// each calls fn with every awaited token and its window slot, in
// entry order.
func (t *tokenTable) each(fn func(token uint64, slot int)) {
	for i, e := range t.ent {
		if t.used[i/64]&(1<<(i%64)) != 0 {
			fn(e&^t.mask|uint64(i), int(e&t.mask))
		}
	}
}

// ID returns the core's node id.
func (c *Core) ID() int { return c.id }

// Retired returns the cumulative retired-instruction count.
func (c *Core) Retired() int64 { return c.retired }

// StalledCycles returns cycles in which the full window blocked issue.
func (c *Core) StalledCycles() int64 { return c.stalled }

// Outstanding returns the number of in-flight misses.
func (c *Core) Outstanding() int { return c.tokens.n }

// WindowOccupancy returns the number of window entries in use.
func (c *Core) WindowOccupancy() int { return c.count }

// Complete delivers the data for an outstanding miss token; the entry
// becomes retirable next cycle.
func (c *Core) Complete(token uint64, cycle int64) {
	slot := c.tokens.take(token)
	if slot < 0 {
		panic(fmt.Sprintf("cpu: core %d completing unknown token %d", c.id, token))
	}
	c.readyAt[slot] = cycle + 1
}

// Step advances the core one cycle: retire from the head in order, then
// issue new instructions subject to the width and memory-port limits.
func (c *Core) Step(cycle int64) {
	// Retire.
	for r := 0; r < c.cfg.IssueWidth && c.count > 0; r++ {
		ra := c.readyAt[c.head]
		if ra == waiting || ra > cycle {
			break
		}
		c.head++
		if c.head == c.cfg.Window {
			c.head = 0
		}
		c.count--
		c.retired++
	}

	// Issue.
	if c.count == c.cfg.Window {
		c.stalled++
		return
	}
	memIssued := 0
	for i := 0; i < c.cfg.IssueWidth && c.count < c.cfg.Window; i++ {
		if !c.hasPending {
			c.pending = c.gen.Next()
			c.hasPending = true
		}
		if c.pending.IsMem && memIssued >= c.cfg.MemPerCycle {
			break // memory port exhausted; retry next cycle
		}
		in := c.pending
		c.hasPending = false
		slot := c.head + c.count
		if slot >= c.cfg.Window {
			slot -= c.cfg.Window
		}
		c.count++
		if !in.IsMem {
			c.readyAt[slot] = cycle + 1
			continue
		}
		memIssued++
		hit, token := c.backend.Access(c.id, in.Addr, in.IsStore)
		if hit {
			c.readyAt[slot] = cycle + c.cfg.HitLatency
		} else {
			c.readyAt[slot] = waiting
			if !c.tokens.put(token, slot) {
				panic(fmt.Sprintf("cpu: core %d miss token %d collides with an outstanding token", c.id, token))
			}
		}
	}
}
