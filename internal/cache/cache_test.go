package cache

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"

	"nocsim/internal/rng"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
)

func TestL1Defaults(t *testing.T) {
	c := NewL1(L1Config{})
	if c.Sets() != 1024 || c.Ways() != 4 || c.BlockBytes() != 32 {
		t.Errorf("default geometry sets=%d ways=%d block=%d, want 1024/4/32",
			c.Sets(), c.Ways(), c.BlockBytes())
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	c := NewL1(L1Config{})
	if c.Access(0x1000) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access must hit")
	}
	if !c.Access(0x101f) {
		t.Error("same 32B block must hit")
	}
	if c.Access(0x1020) {
		t.Error("adjacent block must miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestL1LRUEviction(t *testing.T) {
	// 2-way, 2-set toy cache: 4 blocks of 32B, sets selected by bit 5.
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	// Three distinct blocks in set 0: 0x000, 0x040, 0x080.
	c.Access(0x000)
	c.Access(0x040)
	c.Access(0x000) // touch 0x000 so 0x040 is LRU
	c.Access(0x080) // evicts 0x040
	if !c.Probe(0x000) {
		t.Error("MRU line evicted")
	}
	if c.Probe(0x040) {
		t.Error("LRU line not evicted")
	}
	if !c.Probe(0x080) {
		t.Error("newly inserted line missing")
	}
}

func TestL1ProbeDoesNotAllocate(t *testing.T) {
	c := NewL1(L1Config{})
	if c.Probe(0x40) {
		t.Error("probe hit on empty cache")
	}
	if c.Probe(0x40) {
		t.Error("probe must not allocate")
	}
	if c.Hits()+c.Misses() != 0 {
		t.Error("probe must not count as an access")
	}
}

// Property: working sets that fit in the cache always hit after one pass.
func TestL1FittingWorkingSetAlwaysHits(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 4096, Ways: 4, BlockBytes: 32})
	blocks := 4096 / 32
	for i := 0; i < blocks; i++ {
		c.Access(uint64(i * 32))
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < blocks; i++ {
			if !c.Access(uint64(i * 32)) {
				t.Fatalf("resident block %d missed on pass %d", i, pass)
			}
		}
	}
}

func TestL1StreamingAlwaysMisses(t *testing.T) {
	c := NewL1(L1Config{})
	addr := uint64(0)
	for i := 0; i < 10000; i++ {
		if c.Access(addr) {
			t.Fatalf("fresh block hit at %#x", addr)
		}
		addr += 32
	}
	if c.MissRate() != 1 {
		t.Errorf("streaming miss rate %v, want 1", c.MissRate())
	}
}

func TestL1Reset(t *testing.T) {
	c := NewL1(L1Config{})
	c.Access(0x40)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("counters survive Reset")
	}
	if c.Probe(0x40) {
		t.Error("contents survive Reset")
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
			NewL1(tc.cfg)
		}()
	}
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

func BenchmarkL1Access(b *testing.B) {
	c := NewL1(L1Config{})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
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

func TestDirtyEvictionWriteback(t *testing.T) {
	// 2-way, 2-set toy cache; set 0 holds blocks 0x000, 0x040, 0x080.
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.AccessRW(0x000, true) // dirty
	c.AccessRW(0x040, false)
	c.AccessRW(0x040, false)                  // make 0x000 LRU
	_, wbAddr, wb := c.AccessRW(0x080, false) // evicts dirty 0x000
	if !wb || wbAddr != 0x000 {
		t.Errorf("expected writeback of 0x000, got wb=%v addr=%#x", wb, wbAddr)
	}
	if c.Writebacks() != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks())
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.AccessRW(0x000, false)
	c.AccessRW(0x040, false)
	_, _, wb := c.AccessRW(0x080, false)
	if wb {
		t.Error("clean eviction must not write back")
	}
}

func TestStoreHitDirtiesLine(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.AccessRW(0x000, false) // clean allocate
	c.AccessRW(0x000, true)  // store hit dirties
	c.AccessRW(0x040, false)
	c.AccessRW(0x040, false)
	_, wbAddr, wb := c.AccessRW(0x080, false)
	if !wb || wbAddr != 0 {
		t.Errorf("store-hit-dirtied line must write back: wb=%v addr=%#x", wb, wbAddr)
	}
}

func TestWarmDoesNotDirtyOrCount(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.Warm(0x000)
	c.Warm(0x040)
	if c.Hits()+c.Misses()+c.Writebacks() != 0 {
		t.Error("Warm must not count")
	}
	_, _, wb := c.AccessRW(0x080, false)
	if wb {
		t.Error("warmed lines must be clean")
	}
}

func TestResetClearsDirty(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.AccessRW(0x000, true)
	c.Reset()
	c.AccessRW(0x040, false)
	c.AccessRW(0x080, false)
	_, _, wb := c.AccessRW(0x0c0, false)
	if wb {
		t.Error("Reset must clear dirty bits")
	}
	if c.Writebacks() != 0 {
		t.Error("Reset must clear the writeback counter")
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

// refL1 is the stamp-based L1 the packed layout replaced, kept as the
// reference model: per-line tag, valid, dirty and LRU stamp arrays, a
// global access clock, and the minimum-stamp way as the LRU victim.
type refL1 struct {
	sets      int
	ways      int
	blockBits uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	dirty     []bool
	stamp     []uint64 // per-line LRU timestamp
	clock     uint64

	hits, misses, writebacks int64
}

func newRefL1(cfg L1Config) *refL1 {
	cfg.setDefaults()
	blocks := cfg.SizeBytes / cfg.BlockBytes
	sets := blocks / cfg.Ways
	bb := uint(0)
	for 1<<bb < cfg.BlockBytes {
		bb++
	}
	return &refL1{
		sets:      sets,
		ways:      cfg.Ways,
		blockBits: bb,
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
			c.hits++
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
	c.misses++
	if c.valid[victim] && c.dirty[victim] {
		wb = true
		wbAddr = c.tags[victim] << c.blockBits
		c.writebacks++
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return false, wbAddr, wb
}

func (c *refL1) Probe(addr uint64) bool {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == block {
			return true
		}
	}
	return false
}

func (c *refL1) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
	c.hits, c.misses, c.writebacks, c.clock = 0, 0, 0, 0
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

// checkL1Model replays ops against the packed L1 and refL1 and fails on
// the first difference. Each op is three bytes: the first picks the
// operation (Reset, Probe or an access, whose write flag is bit 0) and
// whether the address carries high bits; the other two pick a block
// among four times the cache's capacity, so sets see hits, conflict
// misses and dirty evictions.
func checkL1Model(t *testing.T, cfg L1Config, ops []byte) {
	t.Helper()
	want := newRefL1(cfg)
	state := 2 + bits.Len(uint(cfg.Ways-1))
	if fits := int(want.blockBits)+bits.TrailingZeros(uint(want.sets)) >= state; !fits {
		defer func() {
			if recover() == nil {
				t.Fatalf("%+v: NewL1 accepted a geometry that cannot hold a %d-bit line state", cfg, state)
			}
		}()
	}
	got := NewL1(cfg)
	span := uint64(4 * len(want.tags))
	for n := 0; n+3 <= len(ops); n += 3 {
		op, idx := ops[n], uint64(ops[n+1])|uint64(ops[n+2])<<8
		addr := (idx%span)<<want.blockBits | uint64(op>>2)%uint64(cfg.BlockBytes)
		if op&0x80 != 0 {
			addr |= 0xfedc << 48
		}
		switch kind := op >> 1 & 0x1f; {
		case kind == 0:
			got.Reset()
			want.Reset()
		case kind < 6:
			if g, w := got.Probe(addr), want.Probe(addr); g != w {
				t.Fatalf("%+v op %d: Probe(%#x) = %v, reference %v", cfg, n/3, addr, g, w)
			}
		default:
			write := op&1 != 0
			gh, gw, gb := got.AccessRW(addr, write)
			wh, ww, wb := want.AccessRW(addr, write)
			if gh != wh || gw != ww || gb != wb {
				t.Fatalf("%+v op %d: AccessRW(%#x, %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
					cfg, n/3, addr, write, gh, gw, gb, wh, ww, wb)
			}
		}
		if got.Hits() != want.hits || got.Misses() != want.misses || got.Writebacks() != want.writebacks {
			t.Fatalf("%+v op %d: counters %d/%d/%d, reference %d/%d/%d", cfg, n/3,
				got.Hits(), got.Misses(), got.Writebacks(), want.hits, want.misses, want.writebacks)
		}
	}
}

// TestL1MatchesReference is the seeded table version of FuzzL1Model:
// every model geometry, the non-power-of-two 3-way ones included,
// replays a long random op stream against refL1.
func TestL1MatchesReference(t *testing.T) {
	r := rng.New(23)
	for sel := 0; sel < 100; sel++ {
		cfg := modelGeometry(uint8(sel))
		ops := make([]byte, 3*20000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		t.Run(fmt.Sprintf("%dway/%dsets/%dB", cfg.Ways, cfg.SizeBytes/cfg.Ways/cfg.BlockBytes, cfg.BlockBytes), func(t *testing.T) {
			checkL1Model(t, cfg, ops)
		})
	}
}

// FuzzL1Model lets the fuzzer pick the geometry and the op stream.
func FuzzL1Model(f *testing.F) {
	f.Add(uint8(3), []byte{0x0e, 0, 0, 0x0f, 4, 0, 0x0e, 8, 0, 0x0e, 0, 0, 0x0e, 12, 0, 0x0e, 16, 0})
	f.Add(uint8(17), []byte{0x8f, 1, 0, 0x8e, 2, 0, 0x8e, 3, 0, 0x8e, 4, 0, 0x00, 0, 0, 0x02, 1, 0})
	f.Fuzz(func(t *testing.T, sel uint8, ops []byte) {
		checkL1Model(t, modelGeometry(sel), ops)
	})
}

// TestL1Footprint pins the packed layout: one 8-byte word per line, so
// the default 4,096-line L1 allocates 32 KiB plus its header.
func TestL1Footprint(t *testing.T) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewL1(L1Config{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 33<<10 {
		t.Errorf("NewL1(L1Config{}) allocated %d bytes, want <= %d", least, 33<<10)
	}
}

// TestL1RestoreRejectsBrokenRanks: a restored set whose ranks are not a
// permutation may lack an LRU way, and its next miss would have no
// victim. Decode must reject it.
func TestL1RestoreRejectsBrokenRanks(t *testing.T) {
	cfg := L1Config{SizeBytes: 1 << 10, Ways: 4, BlockBytes: 32}
	c := NewL1(cfg)
	for a := uint64(0); a < 4<<10; a += 32 {
		c.AccessRW(a, a&64 != 0)
	}
	decode := func() error {
		w := snap.NewWriter()
		snap.Encode(w, c)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		snap.Decode(r, NewL1(cfg))
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
