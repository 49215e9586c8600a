package cpu

import (
	"bytes"
	"testing"

	"nocsim/internal/app"
	"nocsim/internal/rng"
	"nocsim/internal/trace"
)

// computeOnlyBackend panics: used with traces that never touch memory.
type computeOnlyBackend struct{}

func (computeOnlyBackend) Access(int, uint64, bool) (bool, uint64) {
	panic("cpu: unexpected memory access")
}

// alwaysHitBackend services every access as a hit.
type alwaysHitBackend struct{ accesses int }

func (b *alwaysHitBackend) Access(int, uint64, bool) (bool, uint64) {
	b.accesses++
	return true, 0
}

// alwaysMissBackend records tokens and never replies on its own.
type alwaysMissBackend struct {
	next   uint64
	tokens []uint64
}

func (b *alwaysMissBackend) Access(int, uint64, bool) (bool, uint64) {
	b.next++
	b.tokens = append(b.tokens, b.next)
	return false, b.next
}

// computeTrace is a generator stub: package trace has no interface, so
// build a real generator with zero memory references by using a profile
// whose misses are astronomically rare and filtering instructions.
func lightGen(seed uint64) *trace.Generator {
	return trace.New(trace.Config{Profile: app.Synthetic(1e9, 0), Seed: seed})
}

func heavyGen(seed uint64) *trace.Generator {
	return trace.New(trace.Config{Profile: app.MustByName("mcf"), Seed: seed})
}

func TestPureComputeIPC(t *testing.T) {
	// With no (realistically zero) misses and hits served quickly, IPC
	// approaches the issue width.
	c := New(0, Config{}, lightGen(1), &alwaysHitBackend{})
	const cycles = 10000
	for cyc := int64(0); cyc < cycles; cyc++ {
		c.Step(cyc)
	}
	ipc := float64(c.Retired()) / cycles
	if ipc < 2.5 || ipc > 3.0 {
		t.Errorf("compute-bound IPC = %v, want near issue width 3", ipc)
	}
}

func TestSelfThrottlingBoundsOutstanding(t *testing.T) {
	// Backend never completes: the window must fill and the core stall,
	// with outstanding misses bounded by the window size (§3.1).
	b := &alwaysMissBackend{}
	c := New(0, Config{Window: 32}, heavyGen(2), b)
	for cyc := int64(0); cyc < 5000; cyc++ {
		c.Step(cyc)
	}
	if c.Outstanding() > 32 {
		t.Errorf("outstanding misses %d exceed window 32", c.Outstanding())
	}
	if c.WindowOccupancy() != 32 {
		t.Errorf("window occupancy %d, want full 32", c.WindowOccupancy())
	}
	if c.StalledCycles() == 0 {
		t.Error("core never recorded a full-window stall")
	}
	retiredBefore := c.Retired()
	for cyc := int64(5000); cyc < 6000; cyc++ {
		c.Step(cyc)
	}
	if c.Retired() != retiredBefore {
		t.Error("core retired instructions past an unreplied miss (in-order retire broken)")
	}
}

func TestCompleteUnblocksRetirement(t *testing.T) {
	b := &alwaysMissBackend{}
	c := New(0, Config{Window: 8}, heavyGen(3), b)
	for cyc := int64(0); cyc < 200; cyc++ {
		c.Step(cyc)
	}
	if len(b.tokens) == 0 {
		t.Fatal("no misses issued")
	}
	before := c.Retired()
	// Complete all outstanding misses.
	for _, tok := range b.tokens {
		c.Complete(tok, 200)
	}
	b.tokens = nil
	for cyc := int64(201); cyc < 400; cyc++ {
		c.Step(cyc)
	}
	if c.Retired() <= before {
		t.Error("completing misses did not resume retirement")
	}
	if c.Outstanding() != 0 && len(b.tokens) == 0 {
		// Some new misses may have been issued after the completions;
		// they are in b.tokens. Outstanding must match.
		t.Errorf("outstanding %d with no recorded tokens", c.Outstanding())
	}
}

func TestCompleteUnknownTokenPanics(t *testing.T) {
	c := New(0, Config{}, lightGen(4), &alwaysHitBackend{})
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with unknown token did not panic")
		}
	}()
	c.Complete(999, 0)
}

func TestMemPortLimit(t *testing.T) {
	// An all-memory trace with MemPerCycle=1 can issue at most one
	// access per cycle.
	g := trace.New(trace.Config{Profile: app.MustByName("matlab"), Seed: 5})
	b := &alwaysHitBackend{}
	c := New(0, Config{MemPerCycle: 1}, g, b)
	const cycles = 2000
	for cyc := int64(0); cyc < cycles; cyc++ {
		c.Step(cyc)
	}
	if b.accesses > cycles {
		t.Errorf("%d memory accesses in %d cycles violates the 1/cycle port limit", b.accesses, cycles)
	}
}

func TestHitLatencyDelaysRetirement(t *testing.T) {
	// With a huge hit latency, IPC should collapse relative to a short
	// one on a memory-heavy trace.
	run := func(lat int64) float64 {
		g := trace.New(trace.Config{Profile: app.MustByName("matlab"), Seed: 6})
		c := New(0, Config{HitLatency: lat}, g, &alwaysHitBackend{})
		const cycles = 5000
		for cyc := int64(0); cyc < cycles; cyc++ {
			c.Step(cyc)
		}
		return float64(c.Retired()) / cycles
	}
	fast, slow := run(2), run(100)
	if slow >= fast {
		t.Errorf("IPC with 100-cycle hits (%v) should be below 2-cycle hits (%v)", slow, fast)
	}
}

func TestDefaults(t *testing.T) {
	c := New(0, Config{}, lightGen(7), &alwaysHitBackend{})
	if c.cfg.Window != 128 || c.cfg.IssueWidth != 3 || c.cfg.MemPerCycle != 1 || c.cfg.HitLatency != 2 {
		t.Errorf("defaults not applied: %+v", c.cfg)
	}
}

func TestRetireInOrder(t *testing.T) {
	// A miss at the window head blocks all younger completed entries.
	b := &alwaysMissBackend{}
	g := heavyGen(8)
	c := New(0, Config{Window: 16}, g, b)
	for cyc := int64(0); cyc < 100; cyc++ {
		c.Step(cyc)
		if len(b.tokens) > 0 {
			break
		}
	}
	if len(b.tokens) == 0 {
		t.Skip("trace produced no early miss")
	}
	stuck := c.Retired()
	for cyc := int64(100); cyc < 300; cyc++ {
		c.Step(cyc)
	}
	// The window fills (16 entries) and retirement cannot pass the miss:
	// at most Window-1 more instructions could retire if the miss were
	// not at the head; a full stop is expected shortly after.
	if c.Retired() > stuck+16 {
		t.Errorf("retired %d instructions past an unreplied miss", c.Retired()-stuck)
	}
}

func BenchmarkStepComputeBound(b *testing.B) {
	c := New(0, Config{}, lightGen(1), &alwaysHitBackend{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(int64(i))
	}
}

func BenchmarkStepMemoryBound(b *testing.B) {
	c := New(0, Config{}, heavyGen(1), &alwaysHitBackend{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(int64(i))
	}
}

func TestCoreRunsFromRecordedTrace(t *testing.T) {
	// Record a slice of mcf and drive a core from the replay: the
	// PinPoints-style capture/replay flow of §6.1.
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, "mcf", heavyGen(21), 50_000); err != nil {
		t.Fatal(err)
	}
	rp, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0, Config{}, rp, &alwaysHitBackend{})
	for cyc := int64(0); cyc < 100_000; cyc++ {
		c.Step(cyc)
	}
	if c.Retired() < 50_000 {
		t.Errorf("replayed core retired %d instructions, want at least one full loop", c.Retired())
	}
	if rp.Loops() == 0 {
		t.Error("trace should have looped during the run")
	}
}

// TestTokenTableMatchesMap drives the direct-mapped token table the way
// a core does — misses issue in program order into a window of 96 (not
// a power of two), complete out of order, and retire in order — and
// checks every answer against a map. Tokens carry a core id in the high
// bits and start just below the 32-bit counter wrap, as the system
// simulator's do after 2^32 misses.
func TestTokenTableMatchesMap(t *testing.T) {
	const window = 96
	tab := newTokenTable(window)
	if len(tab.ent) != 128 {
		t.Fatalf("table of %d entries for window %d, want 128", len(tab.ent), window)
	}
	ref := map[uint64]int{}
	var fifo []uint64 // issued tokens in program order; 0 once completed
	head := 0         // window slot of fifo[0]
	counter := uint64(1<<32 - 500)
	src := rng.New(5)
	for step := 0; step < 200_000; step++ {
		switch {
		case len(fifo) < window && (len(ref) == 0 || src.Bool(0.5)):
			counter++
			tok := 7<<32 | counter&0xffffffff
			slot := (head + len(fifo)) % window
			if !tab.put(tok, slot) {
				t.Fatalf("step %d: token %#x collided with %d outstanding", step, tok, len(ref))
			}
			ref[tok] = slot
			fifo = append(fifo, tok)
		default:
			// Complete a random outstanding token, out of order.
			var tok uint64
			for tok == 0 {
				tok = fifo[src.Intn(len(fifo))]
			}
			if got := tab.take(tok); got != ref[tok] {
				t.Fatalf("step %d: token %#x slot %d, want %d", step, tok, got, ref[tok])
			}
			if got := tab.take(tok); got != -1 {
				t.Fatalf("step %d: token %#x found again after completion (slot %d)", step, tok, got)
			}
			delete(ref, tok)
			for i := range fifo {
				if fifo[i] == tok {
					fifo[i] = 0
				}
			}
			for len(fifo) > 0 && fifo[0] == 0 {
				fifo = fifo[1:]
				head = (head + 1) % window
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: %d outstanding, want %d", step, tab.n, len(ref))
		}
		// A token never issued, one table size past the newest.
		if got := tab.take(7<<32 | (counter+128)&0xffffffff); got != -1 {
			t.Fatalf("step %d: unissued token found at slot %d", step, got)
		}
	}
}

// randomReplyBackend misses on every access and leaves completion to
// the test, which answers outstanding misses in random order.
type randomReplyBackend struct {
	next uint64
	out  []uint64
}

func (b *randomReplyBackend) Access(int, uint64, bool) (bool, uint64) {
	b.next++
	tok := 3<<32 | b.next&0xffffffff
	b.out = append(b.out, tok)
	return false, tok
}

// TestCoreTokensOutOfOrder runs a core with a 96-entry window against
// out-of-order completions: the core must never report a token
// collision, and Awaiting must list exactly the misses still
// unanswered.
func TestCoreTokensOutOfOrder(t *testing.T) {
	b := &randomReplyBackend{}
	c := New(0, Config{Window: 96}, heavyGen(9), b)
	src := rng.New(6)
	for cyc := int64(0); cyc < 50_000; cyc++ {
		c.Step(cyc)
		for k := src.Intn(3); k > 0 && len(b.out) > 0; k-- {
			i := src.Intn(len(b.out))
			c.Complete(b.out[i], cyc)
			b.out[i] = b.out[len(b.out)-1]
			b.out = b.out[:len(b.out)-1]
		}
		want := map[uint64]bool{}
		for _, tok := range b.out {
			want[tok] = true
		}
		n := 0
		c.Awaiting(func(tok uint64) {
			if !want[tok] {
				t.Fatalf("cycle %d: core awaits token %#x that was answered or never issued", cyc, tok)
			}
			n++
		})
		if n != len(want) || c.Outstanding() != len(want) {
			t.Fatalf("cycle %d: core awaits %d (outstanding %d), want %d", cyc, n, c.Outstanding(), len(want))
		}
	}
	if c.Retired() == 0 {
		t.Fatal("core retired nothing")
	}
}
