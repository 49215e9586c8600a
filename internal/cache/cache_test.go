package cache

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nocsim/internal/app"
	"nocsim/internal/rng"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
	"nocsim/internal/trace"
)

// hotRun returns n consecutive block addresses from base.
func hotRun(base uint64, n, blockBytes int) []uint64 {
	hot := make([]uint64, n)
	for i := range hot {
		hot[i] = base + uint64(i*blockBytes)
	}
	return hot
}

// ref is one access of a scripted L1 test and its expected outcome; a
// zero wantWB means no writeback.
type ref struct {
	addr    uint64
	write   bool
	wantHit bool
	wantWB  uint64
}

// replay runs refs through c and fails on the first unexpected outcome.
func replay(t *testing.T, c *L1, refs []ref) {
	t.Helper()
	for i, r := range refs {
		hit, wbAddr, wb := c.AccessRW(r.addr, r.write)
		if hit != r.wantHit || wb != (r.wantWB != 0) || wb && wbAddr != r.wantWB {
			t.Fatalf("access %d AccessRW(%#x, %v) = (%v, %#x, %v), want hit %v, writeback %#x",
				i, r.addr, r.write, hit, wbAddr, wb, r.wantHit, r.wantWB)
		}
	}
}

func TestL1Defaults(t *testing.T) {
	c := NewL1(L1Config{}, hotRun(0, 64, 32), 1<<30)
	if sets := c.setMask + 1; sets != 1024 || c.ways != 4 || c.blockBits != 5 {
		t.Errorf("default geometry sets=%d ways=%d block=%d, want 1024/4/32", sets, c.ways, 1<<c.blockBits)
	}
	if c.hotSets != 64 || len(c.lines) != 256 || len(c.dirty) != 64 {
		t.Errorf("64 hot blocks keep %d sets, %d line words and %d dirty words, want 64/256/64",
			c.hotSets, len(c.lines), len(c.dirty))
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	replay(t, NewL1(L1Config{}, hotRun(0x1000, 2, 32), 1<<30), []ref{
		{addr: 0x1000},                // a cold access misses
		{addr: 0x1000, wantHit: true}, // the second hits
		{addr: 0x101f, wantHit: true}, // so does the rest of the 32B block
		{addr: 0x1020},                // the adjacent block misses
	})
}

// newToy builds a 2-way, 2-set cache (4 blocks of 32B, sets selected by
// bit 5) with one hot block at 0x400 in set 0 and the stream from
// 0x1000: even stream blocks share set 0 with the hot block and keep
// line words, odd ones fill set 1, a FIFO.
func newToy() *L1 {
	return NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32}, []uint64{0x400}, 0x1000)
}

func TestL1LRUEviction(t *testing.T) {
	replay(t, newToy(), []ref{
		{addr: 0x400, write: true},
		{addr: 0x1000, write: true},    // stream block 0, set 0
		{addr: 0x400, wantHit: true},   // stream block 0 is now LRU
		{addr: 0x1020},                 // stream block 1, set 1
		{addr: 0x1040, wantWB: 0x1000}, // block 2 evicts the LRU block 0, not the hot block
		{addr: 0x400, wantHit: true},   // so the hot block still hits
		{addr: 0x1060},                 // block 3, set 1
		{addr: 0x1080},                 // block 4 evicts clean block 2; the hot block is LRU
		{addr: 0x10a0},                 // block 5, set 1
		{addr: 0x10c0, wantWB: 0x400},  // block 6 evicts the dirty hot block
		{addr: 0x400},                  // whose next reference misses, evicting clean block 4
		{addr: 0x400, wantHit: true},
	})
}

// Property: working sets that fit in the cache always hit after one pass.
func TestL1FittingWorkingSetAlwaysHits(t *testing.T) {
	const blocks = 4096 / 32
	hot := hotRun(0, blocks, 32)
	c := NewL1(L1Config{SizeBytes: 4096, Ways: 4, BlockBytes: 32}, hot, blocks*32)
	for _, a := range hot {
		c.AccessRW(a, false)
	}
	for pass := 0; pass < 3; pass++ {
		for i, a := range hot {
			if hit, _, _ := c.AccessRW(a, false); !hit {
				t.Fatalf("resident block %d missed on pass %d", i, pass)
			}
		}
	}
}

func TestL1StreamingAlwaysMisses(t *testing.T) {
	c := NewL1(L1Config{}, hotRun(0, 64, 32), 1<<30)
	addr := uint64(1 << 30)
	for i := 0; i < 10000; i++ {
		if hit, _, _ := c.AccessRW(addr, false); hit {
			t.Fatalf("fresh block hit at %#x", addr)
		}
		addr += 32
	}
	if c.Streamed() != 10000 {
		t.Errorf("streamed %d blocks, want 10000", c.Streamed())
	}
}

func TestL1PanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  L1Config
	}{
		{"non-power-of-two block size", L1Config{BlockBytes: 24}},
		// One set of 1-byte blocks leaves no address bits below the
		// tag for the 4-bit line state of a 4-way cache.
		{"no room for the packed line state", L1Config{SizeBytes: 4, Ways: 4, BlockBytes: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewL1(%+v) did not panic", tc.name, tc.cfg)
				}
			}()
			NewL1(tc.cfg, []uint64{0}, 1<<30)
		}()
	}
}

// TestL1PanicsOffLayout: a layout the L1 cannot keep state for, and an
// access outside it — neither a hot block nor the next stream block —
// panic with a cache: message instead of answering wrongly.
func TestL1PanicsOffLayout(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "cache: ") {
				t.Errorf("%s: recovered %q, want a cache: panic", name, msg)
			}
		}()
		fn()
	}
	mustPanic("no hot blocks", func() { NewL1(L1Config{}, nil, 1<<30) })
	mustPanic("a gap in the hot run", func() { NewL1(L1Config{}, []uint64{0, 64}, 1<<30) })
	mustPanic("stream below the hot run", func() { NewL1(L1Config{}, hotRun(1<<30, 4, 32), 1<<30+64) })
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"below the hot run", 0x3fe0},
		{"between the hot run and the stream", 0x4000 + 64*32},
		{"stream block 0 again", 1 << 30},
		{"stream block 2 before 1", 1<<30 + 64},
	} {
		c := NewL1(L1Config{}, hotRun(0x4000, 64, 32), 1<<30)
		c.AccessRW(1<<30, true)
		mustPanic(tc.name, func() { c.AccessRW(tc.addr, false) })
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	replay(t, newToy(), []ref{
		{addr: 0x400, write: true},
		{addr: 0x1000},
		{addr: 0x1020, write: true},   // dirty stream block 1 in FIFO set 1
		{addr: 0x1040, wantWB: 0x400}, // block 2 evicts the LRU dirty hot block
		{addr: 0x1060},
		{addr: 0x1080},                 // set 0 evicts clean block 0
		{addr: 0x10a0, wantWB: 0x1020}, // block 5 evicts block 1, the oldest of set 1
	})
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	replay(t, newToy(), []ref{
		{addr: 0x400},
		{addr: 0x1000},
		{addr: 0x1020},
		{addr: 0x1040}, // evicts the clean hot block
		{addr: 0x1060},
		{addr: 0x1080},
		{addr: 0x10a0}, // evicts clean stream block 1 from the FIFO set
	})
}

func TestStoreHitDirtiesLine(t *testing.T) {
	replay(t, newToy(), []ref{
		{addr: 0x400}, // clean allocate
		{addr: 0x400, write: true, wantHit: true}, // a store hit dirties the line
		{addr: 0x1000},
		{addr: 0x1020},
		{addr: 0x1040, wantWB: 0x400},
	})
}

func TestWarmDoesNotDirtyOrCount(t *testing.T) {
	c := newToy()
	c.Warm(0x400)
	if c.Streamed() != 0 {
		t.Error("warming a hot block must not advance the stream")
	}
	replay(t, c, []ref{
		{addr: 0x400, wantHit: true},
		{addr: 0x1000},
		{addr: 0x1020},
		{addr: 0x1040}, // the warmed line must be clean
	})
}
func TestXORInterleaveInRangeAndUniform(t *testing.T) {
	m := NewXORInterleave(16, 32)
	counts := make([]int, 16)
	const draws = 100000
	for i := 0; i < draws; i++ {
		h := m.Home(0, uint64(i*32))
		if h < 0 || h >= 16 {
			t.Fatalf("home %d out of range", h)
		}
		counts[h]++
	}
	want := float64(draws) / 16
	for n, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d got %d blocks, want about %.0f", n, c, want)
		}
	}
}

func TestXORInterleaveDeterministic(t *testing.T) {
	m := NewXORInterleave(64, 32)
	f := func(addr uint64) bool {
		return m.Home(3, addr) == m.Home(9, addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error("XOR mapping must depend only on the address:", err)
	}
}

func TestLocalityMeanDistance(t *testing.T) {
	top := topology.NewSquare(topology.Mesh, 64)
	for _, mean := range []float64{1, 2, 4, 8} {
		m := NewLocality(LocalityConfig{Topology: top, MeanHops: mean, Seed: 7})
		src := top.Node(32, 32) // central node: no clamping distortion
		const draws = 20000
		sum := 0.0
		for i := 0; i < draws; i++ {
			dst := m.Home(src, uint64(i))
			sum += float64(top.Distance(src, dst))
		}
		got := sum / draws
		if math.Abs(got-mean) > 0.15*mean+0.15 {
			t.Errorf("mean hops %v: measured %v", mean, got)
		}
	}
}

func TestLocalityTailMatchesPaper(t *testing.T) {
	// §3.2: lambda=1 places 95% of requests within 3 hops, 99% within 5.
	top := topology.NewSquare(topology.Mesh, 64)
	m := NewLocality(LocalityConfig{Topology: top, MeanHops: 1, Seed: 3})
	src := top.Node(32, 32)
	const draws = 50000
	within3, within5 := 0, 0
	for i := 0; i < draws; i++ {
		d := top.Distance(src, m.Home(src, uint64(i)))
		if d <= 3 {
			within3++
		}
		if d <= 5 {
			within5++
		}
	}
	if p := float64(within3) / draws; p < 0.93 {
		t.Errorf("P(d<=3) = %v, want >= 0.93 (paper: 95%%)", p)
	}
	if p := float64(within5) / draws; p < 0.98 {
		t.Errorf("P(d<=5) = %v, want >= 0.98 (paper: 99%%)", p)
	}
}

func TestLocalityEdgeNodesClamped(t *testing.T) {
	top := topology.NewSquare(topology.Mesh, 4)
	m := NewLocality(LocalityConfig{Topology: top, MeanHops: 8, Seed: 1})
	for i := 0; i < 5000; i++ {
		h := m.Home(0, uint64(i))
		if h < 0 || h >= 16 {
			t.Fatalf("home %d out of range", h)
		}
	}
}

func TestLocalityPowerLaw(t *testing.T) {
	top := topology.NewSquare(topology.Mesh, 64)
	m := NewLocality(LocalityConfig{Topology: top, Kind: PowerLaw, MeanHops: 2, Alpha: 2, Seed: 5})
	src := top.Node(32, 32)
	const draws = 20000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(top.Distance(src, m.Home(src, uint64(i))))
	}
	got := sum / draws
	// Heavy tail truncated by the mesh; accept a broad band around mean.
	if got < 1 || got > 4 {
		t.Errorf("power-law mean distance %v, want in [1,4]", got)
	}
}

func TestLocalityDeterministicPerSeed(t *testing.T) {
	top := topology.NewSquare(topology.Mesh, 8)
	a := NewLocality(LocalityConfig{Topology: top, Seed: 42})
	b := NewLocality(LocalityConfig{Topology: top, Seed: 42})
	for i := 0; i < 1000; i++ {
		if a.Home(5, uint64(i)) != b.Home(5, uint64(i)) {
			t.Fatal("equal seeds must give equal draw sequences")
		}
	}
}

func TestNodesAtRingComplete(t *testing.T) {
	top := topology.NewSquare(topology.Mesh, 8)
	m := NewLocality(LocalityConfig{Topology: top, Seed: 1})
	for src := 0; src < 64; src += 13 {
		for d := 1; d <= 6; d++ {
			ring := m.nodesAt(nil, src, d)
			// Cross-check against brute force.
			want := 0
			for n := 0; n < 64; n++ {
				if top.Distance(src, n) == d {
					want++
				}
			}
			if len(ring) != want {
				t.Errorf("src %d dist %d: ring has %d nodes, want %d", src, d, len(ring), want)
			}
			for _, n := range ring {
				if top.Distance(src, int(n)) != d {
					t.Errorf("src %d: node %d not at distance %d", src, n, d)
				}
			}
		}
	}
}

func TestFixedMapper(t *testing.T) {
	m := Fixed{Dst: 7}
	if m.Home(3, 0xdead) != 7 {
		t.Error("Fixed mapper must always return Dst")
	}
}

func TestLocalityZeroDistanceIsSelf(t *testing.T) {
	// With a tiny mean, most draws round to distance 0 = local slice.
	top := topology.NewSquare(topology.Mesh, 8)
	m := NewLocality(LocalityConfig{Topology: top, MeanHops: 0.05, Seed: 9})
	self := 0
	for i := 0; i < 1000; i++ {
		if m.Home(27, uint64(i)) == 27 {
			self++
		}
	}
	if self < 900 {
		t.Errorf("tiny mean should map mostly to self; got %d/1000", self)
	}
}

func BenchmarkLocalityHome(b *testing.B) {
	top := topology.NewSquare(topology.Mesh, 64)
	m := NewLocality(LocalityConfig{Topology: top, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Home(2080, uint64(i))
	}
}

func TestGroupedMapperStaysInGroup(t *testing.T) {
	// Two groups: nodes 0-7 and 8-15.
	group := make([]int, 16)
	for i := 8; i < 16; i++ {
		group[i] = 1
	}
	m := NewGrouped(group, 3)
	for src := 0; src < 16; src++ {
		for i := 0; i < 200; i++ {
			h := m.Home(src, uint64(i))
			if (src < 8) != (h < 8) {
				t.Fatalf("src %d mapped outside its group: %d", src, h)
			}
		}
	}
}

func TestGroupedMapperCoversGroup(t *testing.T) {
	group := []int{0, 0, 0, 0}
	m := NewGrouped(group, 5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[m.Home(0, uint64(i))] = true
	}
	if len(seen) != 4 {
		t.Errorf("group coverage %d members, want 4", len(seen))
	}
}

func TestGroupedPanicsOnEmptyGroup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sparse group ids did not panic")
		}
	}()
	NewGrouped([]int{0, 2}, 1) // group 1 empty
}

// refL1 is the stamp-based full L1, the oracle the layout L1 is checked
// against: per-line tag, valid, dirty and LRU stamp arrays over every
// set, a global access clock, and the minimum-stamp way as the LRU
// victim. It takes any address.
type refL1 struct {
	ways      int
	blockBits uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	dirty     []bool
	stamp     []uint64 // per-line LRU timestamp
	clock     uint64
}

func newRefL1(cfg L1Config) *refL1 {
	cfg.setDefaults()
	blocks := cfg.SizeBytes / cfg.BlockBytes
	sets := blocks / cfg.Ways
	return &refL1{
		ways:      cfg.Ways,
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, blocks),
		valid:     make([]bool, blocks),
		dirty:     make([]bool, blocks),
		stamp:     make([]uint64, blocks),
	}
}

func (c *refL1) AccessRW(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	c.clock++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == block {
			c.stamp[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return true, 0, false
		}
		if !c.valid[i] {
			victim = i
			oldest = 0
		} else if c.stamp[i] < oldest {
			victim = i
			oldest = c.stamp[i]
		}
	}
	if c.valid[victim] && c.dirty[victim] {
		wb = true
		wbAddr = c.tags[victim] << c.blockBits
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return false, wbAddr, wb
}

// modelGeometry maps a selector to one of the geometries the model
// tests sweep: 1-, 2-, 3-, 4- and 8-way caches of 1 to 256 sets with
// 4- to 64-byte blocks. A few are too small to hold the packed line
// state; checkL1Model expects NewL1 to refuse exactly those.
func modelGeometry(sel uint8) L1Config {
	ways := []int{1, 2, 3, 4, 8}[sel%5]
	sets := []int{1, 2, 4, 16, 256}[sel/5%5]
	block := []int{4, 8, 32, 64}[sel/25%4]
	return L1Config{SizeBytes: sets * ways * block, Ways: ways, BlockBytes: block}
}

// modelLayout maps a selector to a layout for cfg: 1 to 2*sets+1 hot
// blocks (below, at and above the set count) from any of 128 block
// offsets, behind high address bits when the top bit is set, and a
// stream base up to 255 blocks past the hot run, so the hot run and the
// stream each start in any set.
func modelLayout(cfg L1Config, lay uint32) (hot []uint64, streamBase uint64) {
	sets := cfg.SizeBytes / cfg.Ways / cfg.BlockBytes
	n := 1 + int(lay&0xffff)%(2*sets+1)
	base := uint64(lay>>16&0x7f) * uint64(cfg.BlockBytes)
	if lay&(1<<31) != 0 {
		base |= 0xfedc << 48
	}
	return hotRun(base, n, cfg.BlockBytes), base + uint64(n+int(lay>>23&0xff))*uint64(cfg.BlockBytes)
}

// checkL1Model replays a layout stream against the L1 and refL1 and
// fails on the first difference. Each op is three bytes: the first
// holds the write flag (bit 0), a Warm flag (bit 1), the kind (bits
// 2-3: 0 references a hot block, anything else the next stream block)
// and a byte offset into the block (bits 4-7); the other two pick the
// hot block. A quarter of the ops revisit hot blocks, so sets see hits,
// hot blocks evicted by the stream, and dirty evictions from both the
// line words and the stream's FIFO sets.
func checkL1Model(t *testing.T, cfg L1Config, lay uint32, ops []byte) {
	t.Helper()
	want := newRefL1(cfg)
	state := 2 + bits.Len(uint(cfg.Ways-1))
	sets := want.setMask + 1
	if fits := int(want.blockBits)+bits.TrailingZeros64(sets) >= state; !fits {
		defer func() {
			if recover() == nil {
				t.Fatalf("%+v: NewL1 accepted a geometry that cannot hold a %d-bit line state", cfg, state)
			}
		}()
	}
	hot, stream := modelLayout(cfg, lay)
	got := NewL1(cfg, hot, stream)
	bb := uint64(cfg.BlockBytes)
	for n := 0; n+3 <= len(ops); n += 3 {
		op, idx := ops[n], int(ops[n+1])|int(ops[n+2])<<8
		addr := hot[idx%len(hot)]
		if op>>2&3 != 0 {
			addr = stream + got.Streamed()*bb
		}
		addr += uint64(op>>4) % bb
		if op&2 != 0 {
			got.Warm(addr)
			want.AccessRW(addr, false)
			continue
		}
		write := op&1 != 0
		gh, gw, gb := got.AccessRW(addr, write)
		wh, ww, wb := want.AccessRW(addr, write)
		if gh != wh || gw != ww || gb != wb {
			t.Fatalf("%+v with %d hot blocks at %#x, stream at %#x, op %d: AccessRW(%#x, %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
				cfg, len(hot), hot[0], stream, n/3, addr, write, gh, gw, gb, wh, ww, wb)
		}
	}
}

// TestL1MatchesReference is the seeded table version of FuzzL1Model:
// every model geometry, the non-power-of-two 3-way ones included,
// replays a long random layout stream against refL1.
func TestL1MatchesReference(t *testing.T) {
	r := rng.New(23)
	for sel := 0; sel < 100; sel++ {
		cfg := modelGeometry(uint8(sel))
		lay := uint32(r.Uint64())
		ops := make([]byte, 3*20000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		t.Run(fmt.Sprintf("%dway/%dsets/%dB", cfg.Ways, cfg.SizeBytes/cfg.Ways/cfg.BlockBytes, cfg.BlockBytes), func(t *testing.T) {
			checkL1Model(t, cfg, lay, ops)
		})
	}
}

// FuzzL1Model lets the fuzzer pick the geometry, the layout and the
// stream.
func FuzzL1Model(f *testing.F) {
	f.Add(uint8(3), uint32(5), []byte{0x0e, 0, 0, 0x0f, 4, 0, 0x04, 8, 0, 0x00, 0, 0, 0x0c, 12, 0, 0x01, 16, 0})
	f.Add(uint8(17), uint32(1<<31|40<<16|3), []byte{0x8f, 1, 0, 0x8e, 2, 0, 0x05, 3, 0, 0x89, 4, 0, 0x00, 0, 0, 0x02, 1, 0})
	f.Fuzz(func(t *testing.T, sel uint8, lay uint32, ops []byte) {
		checkL1Model(t, modelGeometry(sel), lay, ops)
	})
}

// TestL1MatchesGenerators drives the L1 and refL1 with the streams
// trace.Generator emits, warmed as sim.New warms them, and requires
// every access to return the same (hit, wbAddr, wb). It covers 1- to
// 8-way geometries of 4 KB to 128 KB, hot runs below, at and above the
// set count, and apps of every intensity with stores on. matlab must
// show hot blocks evicted by the stream and dirty stream blocks
// written back, the two outcomes a reduced L1 could get wrong.
func TestL1MatchesGenerators(t *testing.T) {
	insns := 400_000
	if testing.Short() {
		insns = 40_000
	}
	var hotMisses, streamWBs int64 // matlab's, over every run
	for _, cfg := range []L1Config{
		{},                             // 128 KB, 4-way: 1,024 sets
		{SizeBytes: 4 << 10},           // 32 sets
		{Ways: 2},                      // 2,048 sets
		{SizeBytes: 96 << 10, Ways: 3}, // 1,024 sets
		{Ways: 8},                      // 512 sets
		{Ways: 1},                      // 4,096 sets
	} {
		full := cfg
		full.setDefaults()
		sets := full.SizeBytes / full.Ways / full.BlockBytes
		below := 64
		if below >= sets {
			below = sets / 2
		}
		for _, hotBlocks := range []int{below, sets, sets + sets/2} {
			for _, name := range []string{"matlab", "mcf", "health", "gromacs", "sphinx3"} {
				gen := trace.New(trace.Config{
					Profile:   app.MustByName(name),
					HotBlocks: hotBlocks,
					StoreFrac: 0.3,
					AddrBase:  7 << 40,
					Seed:      1,
				})
				got := NewL1(cfg, gen.HotAddresses(), gen.StreamBase())
				want := newRefL1(cfg)
				for _, a := range gen.HotAddresses() {
					got.Warm(a)
					want.AccessRW(a, false)
				}
				for i := 0; i < insns; i++ {
					in := gen.Next()
					if !in.IsMem {
						continue
					}
					gh, gw, gb := got.AccessRW(in.Addr, in.IsStore)
					wh, ww, wb := want.AccessRW(in.Addr, in.IsStore)
					if gh != wh || gw != ww || gb != wb {
						t.Fatalf("%+v, %d hot blocks, %s, instruction %d: AccessRW(%#x, %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
							cfg, hotBlocks, name, i, in.Addr, in.IsStore, gh, gw, gb, wh, ww, wb)
					}
					if name == "matlab" && !gh && in.Addr < gen.StreamBase() {
						hotMisses++
					}
					if name == "matlab" && gb && gw >= gen.StreamBase() {
						streamWBs++
					}
				}
			}
		}
	}
	t.Logf("matlab: %d hot-reference misses, %d stream writebacks", hotMisses, streamWBs)
	if hotMisses == 0 || streamWBs == 0 {
		t.Errorf("matlab missed on %d hot references and wrote back %d stream blocks; the test must exercise both",
			hotMisses, streamWBs)
	}
}

// TestL1Footprint pins the layout: line words only for the sets a hot
// block maps to and a dirty bit per recent stream block, so the
// default L1 with 64 hot blocks allocates 2 KiB of line words, a 512 B
// ring and its header.
func TestL1Footprint(t *testing.T) {
	hot := hotRun(0, 64, 32)
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewL1(L1Config{}, hot, 1<<30)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 3<<10 {
		t.Errorf("NewL1(L1Config{}) with 64 hot blocks allocated %d bytes, want <= %d", least, 3<<10)
	}
}

// TestL1RestoreRejectsBrokenRanks: a restored set whose ranks are not a
// permutation may lack an LRU way, and its next miss would have no
// victim. Decode must reject it.
func TestL1RestoreRejectsBrokenRanks(t *testing.T) {
	cfg := L1Config{SizeBytes: 1 << 10, Ways: 4, BlockBytes: 32}
	hot := hotRun(0, 8, 32)
	c := NewL1(cfg, hot, 1<<12)
	for a := uint64(1 << 12); a < 2<<12; a += 32 {
		c.AccessRW(hot[a/32%8], a&64 != 0)
		c.AccessRW(a, a&128 != 0)
	}
	decode := func() error {
		w := snap.NewWriter()
		snap.Encode(w, c)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		snap.Decode(r, NewL1(cfg, hot, 1<<12))
		return r.Err()
	}
	if err := decode(); err != nil {
		t.Fatalf("intact L1 rejected: %v", err)
	}
	ranks := uint64(1)<<c.shift - 1<<rankShift
	c.lines[5] = c.lines[5]&^ranks | c.lines[6]&ranks // set 1: two ways share a rank
	if err := decode(); err == nil {
		t.Fatal("an L1 set with a duplicated rank restored without error")
	}
}

func BenchmarkL1Access(b *testing.B) {
	hot := hotRun(0, 64, 32)
	c := NewL1(L1Config{}, hot, 1<<30)
	r := rng.New(1)
	picks := make([]int, 4096) // a hot block, or -1 for the next stream block
	for i := range picks {
		picks[i] = r.Intn(len(hot)+16) - 16
		picks[i] = max(picks[i], -1)
	}
	next := uint64(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := picks[i&4095]; h >= 0 {
			c.AccessRW(hot[h], false)
		} else {
			c.AccessRW(next, false)
			next += 32
		}
	}
}
