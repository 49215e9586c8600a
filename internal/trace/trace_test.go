package trace

import (
	"math"
	"testing"

	"nocsim/internal/app"
	"nocsim/internal/cache"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Profile: app.MustByName("mcf"), Seed: 5}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at instruction %d", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := New(Config{Profile: app.MustByName("mcf"), Seed: 1})
	b := New(Config{Profile: app.MustByName("mcf"), Seed: 2})
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical streams")
	}
}

// Calibration: the stream's implied IPF must converge to the Table 1
// mean for applications across the intensity spectrum.
func TestIPFCalibration(t *testing.T) {
	for _, name := range []string{"matlab", "mcf", "gromacs", "bzip2", "gcc", "omnetpp"} {
		p := app.MustByName(name)
		g := New(Config{Profile: p, Seed: 9})
		n := int64(3_000_000)
		if p.IPFMean > 100 {
			n = 30_000_000 // light apps need more instructions per miss sample
		}
		for i := int64(0); i < n; i++ {
			g.Next()
		}
		got := g.ExpectedIPF()
		if math.Abs(got-p.IPFMean)/p.IPFMean > 0.15 {
			t.Errorf("%s: stream IPF %.2f, want within 15%% of %.2f", name, got, p.IPFMean)
		}
	}
}

// The generated hit/miss split must survive the real L1 model: miss
// intents always miss (fresh blocks), and at mcf's miss rate hot
// references hit after warmup but for the rare ones the stream evicted.
func TestCalibrationThroughRealL1(t *testing.T) {
	p := app.MustByName("mcf")
	g := New(Config{Profile: p, Seed: 4})
	l1 := cache.NewL1(cache.L1Config{}, g.HotAddresses(), g.StreamBase())
	misses := int64(0)
	access := func(n int) {
		for i := 0; i < n; i++ {
			if in := g.Next(); in.IsMem {
				if hit, _, _ := l1.AccessRW(in.Addr, false); !hit {
					misses++
				}
			}
		}
	}
	// Warm up the hot set.
	access(200000)
	intentsBefore, missesBefore := g.MissIntents(), misses
	access(2_000_000)
	intents := g.MissIntents() - intentsBefore
	misses -= missesBefore
	if intents == 0 {
		t.Fatal("no miss intents generated")
	}
	if misses < intents {
		t.Errorf("realised L1 misses %d below intents %d: a stream block hit", misses, intents)
	}
	drift := math.Abs(float64(misses-intents)) / float64(intents)
	if drift > 0.02 {
		t.Errorf("realised L1 misses %d vs intents %d (drift %.1f%%)", misses, intents, 100*drift)
	}
}

func TestPhaseModulation(t *testing.T) {
	// sphinx3 has large IPF variance: the per-window miss rate must
	// visibly differ between phases.
	g := New(Config{Profile: app.MustByName("sphinx3"), Seed: 7, PhaseDwellInsns: 20000})
	pi, pc := g.PhaseMissProb()
	if pi <= pc {
		t.Fatalf("intense phase miss prob %v must exceed calm %v", pi, pc)
	}
	// Observe both phases over a long run.
	saw := map[int]bool{}
	for i := 0; i < 500000; i++ {
		g.Next()
		saw[g.Phase()] = true
	}
	if !saw[0] || !saw[1] {
		t.Error("phase process never toggled")
	}
}

func TestZeroVarianceProfileHasFlatPhases(t *testing.T) {
	g := New(Config{Profile: app.Synthetic(10, 0), Seed: 1})
	pi, pc := g.PhaseMissProb()
	if pi != pc {
		t.Errorf("zero-variance profile should have equal phase probs, got %v vs %v", pi, pc)
	}
}

func TestMemFractionBounds(t *testing.T) {
	for _, p := range app.Table1 {
		g := New(Config{Profile: p, Seed: 1})
		mf := g.MemFraction()
		if mf < 0.3-1e-9 || mf > 1 {
			t.Errorf("%s: mem fraction %v out of [0.3, 1]", p.Name, mf)
		}
		pi, pc := g.PhaseMissProb()
		if pi < 0 || pi > 1 || pc < 0 || pc > 1 {
			t.Errorf("%s: phase miss probs out of range: %v %v", p.Name, pi, pc)
		}
	}
}

func TestStreamAddressesAreFreshBlocks(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 3})
	seen := map[uint64]bool{}
	hotMax := g.hot[len(g.hot)-1]
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if !in.IsMem {
			continue
		}
		if in.Addr > hotMax { // streaming region
			blk := in.Addr / 32
			if seen[blk] {
				t.Fatalf("streaming block %#x repeated: would hit in L1", blk)
			}
			seen[blk] = true
		}
	}
}

func TestAddrBaseSeparatesCores(t *testing.T) {
	a := New(Config{Profile: app.MustByName("mcf"), Seed: 1, AddrBase: 0})
	b := New(Config{Profile: app.MustByName("mcf"), Seed: 1, AddrBase: 1 << 40})
	for i := 0; i < 10000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia.IsMem && ia.Addr >= 1<<40 {
			t.Fatal("core 0 address in core 1's region")
		}
		if ib.IsMem && ib.Addr < 1<<40 {
			t.Fatal("core 1 address in core 0's region")
		}
	}
}

func TestVeryLightAppRarelyMisses(t *testing.T) {
	g := New(Config{Profile: app.MustByName("povray"), Seed: 2})
	for i := 0; i < 1_000_000; i++ {
		g.Next()
	}
	// povray IPF 20708.5, 5 flits/miss: about 1 miss per 103k insns.
	got := g.MissIntents()
	if got > 60 {
		t.Errorf("povray produced %d misses in 1M insns, want ~10", got)
	}
}

func BenchmarkNext(b *testing.B) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestStoreFraction(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 30, StoreFrac: 0.3})
	mem, stores := 0, 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.IsMem {
			mem++
			if in.IsStore {
				stores++
			}
		}
	}
	got := float64(stores) / float64(mem)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("store fraction %.3f, want ~0.3", got)
	}
}

func TestNoStoresByDefault(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 31})
	for i := 0; i < 50000; i++ {
		if g.Next().IsStore {
			t.Fatal("store emitted with StoreFrac 0")
		}
	}
}
