package core

import (
	"math"
	"testing"
	"testing/quick"

	"nocsim/internal/rng"
)

func TestMonitorWindowExact(t *testing.T) {
	m := NewMonitor(1, 128)
	// 32 starved cycles then 96 clean: sigma = 32/128.
	for i := 0; i < 32; i++ {
		m.Tick(0, true)
	}
	for i := 0; i < 96; i++ {
		m.Tick(0, false)
	}
	if got := m.Rate(0); got != 0.25 {
		t.Errorf("sigma = %v, want 0.25", got)
	}
	// 128 more clean cycles age everything out.
	for i := 0; i < 128; i++ {
		m.Tick(0, false)
	}
	if got := m.Rate(0); got != 0 {
		t.Errorf("sigma after aging = %v, want 0", got)
	}
}

func TestMonitorAllStarved(t *testing.T) {
	m := NewMonitor(2, 128)
	for i := 0; i < 500; i++ {
		m.Tick(1, true)
	}
	if got := m.Rate(1); got != 1 {
		t.Errorf("sigma = %v, want 1", got)
	}
	if got := m.Rate(0); got != 0 {
		t.Errorf("untouched node sigma = %v, want 0", got)
	}
}

// Property: the monitor's running sum always equals a brute-force count
// over the last W ticks.
func TestMonitorMatchesBruteForce(t *testing.T) {
	const W = 128
	m := NewMonitor(1, W)
	r := rng.New(3)
	var history []bool
	for i := 0; i < 2000; i++ {
		s := r.Bool(0.3)
		m.Tick(0, s)
		history = append(history, s)
		count := 0
		lo := len(history) - W
		if lo < 0 {
			lo = 0
		}
		for _, h := range history[lo:] {
			if h {
				count++
			}
		}
		if got := m.Rate(0); got != float64(count)/W {
			t.Fatalf("tick %d: sigma %v, brute force %v", i, got, float64(count)/W)
		}
	}
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor(1, 64)
	for i := 0; i < 10; i++ {
		m.Tick(0, true)
	}
	m.Reset()
	if m.Rate(0) != 0 {
		t.Error("Reset did not clear the window")
	}
}

func TestMonitorPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window 100 (not multiple of 64) did not panic")
		}
	}()
	NewMonitor(1, 100)
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	// §6.5: "only 149 bits of storage, two counters, and one comparator".
	if HardwareBitsPerNode != 149 {
		t.Errorf("hardware cost %d bits, paper says 149", HardwareBitsPerNode)
	}
}

func TestThrottlerRateExact(t *testing.T) {
	for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1} {
		th := NewThrottler(1)
		th.SetRate(0, rate)
		allowed := 0
		const trials = MaxCount * 100
		for i := 0; i < trials; i++ {
			if th.Allow(0) {
				allowed++
			}
		}
		got := 1 - float64(allowed)/trials
		if math.Abs(got-rate) > 0.01 {
			t.Errorf("rate %v: blocked fraction %v", rate, got)
		}
	}
}

func TestThrottlerDeterministicPattern(t *testing.T) {
	// Rate 0.5: exactly half of each 128-opportunity period is blocked,
	// deterministically (no burstiness beyond one period).
	th := NewThrottler(1)
	th.SetRate(0, 0.5)
	blockedInPeriod := 0
	for i := 0; i < MaxCount; i++ {
		if !th.Allow(0) {
			blockedInPeriod++
		}
	}
	if blockedInPeriod != MaxCount/2 {
		t.Errorf("blocked %d of %d in one period, want exactly half", blockedInPeriod, MaxCount)
	}
}

func TestThrottlerClampsRate(t *testing.T) {
	th := NewThrottler(1)
	th.SetRate(0, 1.7)
	if th.Rate(0) != 1 {
		t.Errorf("rate clamped to %v, want 1", th.Rate(0))
	}
	th.SetRate(0, -0.3)
	if th.Rate(0) != 0 {
		t.Errorf("rate clamped to %v, want 0", th.Rate(0))
	}
}

func TestThrottlerFullRateBlocksAlmostAll(t *testing.T) {
	th := NewThrottler(1)
	th.SetRate(0, 1)
	allowed := 0
	for i := 0; i < MaxCount*10; i++ {
		if th.Allow(0) {
			allowed++
		}
	}
	// Counter value 0 (1 in 128) passes the >= comparison by wraparound.
	if allowed > 10 {
		t.Errorf("rate 1 allowed %d injections", allowed)
	}
}

func TestPolicyTickSemantics(t *testing.T) {
	p := NewPolicy(1, 128)
	// wanted && !injected && !throttled is starved.
	p.Tick(0, true, false, false)
	// injected, idle, and throttle-blocked cycles are not starved.
	p.Tick(0, true, true, false)
	p.Tick(0, false, false, false)
	p.Tick(0, true, false, true)
	if got := p.M.Rate(0); got != 1.0/128 {
		t.Errorf("sigma = %v, want 1/128", got)
	}
	if p.MarkCongested(0) {
		t.Error("central policy must never mark congestion bits")
	}
}

func TestParamsEquations(t *testing.T) {
	p := DefaultParams()
	// Equation 1 at the paper's constants.
	if got := p.StarveThreshold(1.0); got != 0.4 {
		t.Errorf("starve threshold for IPF=1: %v, want 0.4 (0.0 + 0.4/1)", got)
	}
	if got := p.StarveThreshold(0.4); got != 0.7 {
		t.Errorf("starve threshold for IPF=0.4: %v, want gamma cap 0.7", got)
	}
	// Equation 2.
	if got := p.ThrottleRate(1.0); got != 0.75 {
		t.Errorf("throttle rate for IPF=1: %v, want gamma cap 0.75", got)
	}
	if got := p.ThrottleRate(9.0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("throttle rate for IPF=9: %v, want 0.2+0.9/9=0.3", got)
	}
	if got := p.ThrottleRate(1e6); math.Abs(got-0.2) > 1e-3 {
		t.Errorf("throttle rate for huge IPF: %v, want ~beta 0.2", got)
	}
}

// starve drives node's monitor to a given sigma.
func starve(p *Policy, node int, sigma float64) {
	w := p.M.Window()
	k := int(sigma * float64(w))
	for i := 0; i < w-k; i++ {
		p.M.Tick(node, false)
	}
	for i := 0; i < k; i++ {
		p.M.Tick(node, true)
	}
}

func TestControllerThrottlesIntensiveOnly(t *testing.T) {
	p := NewPolicy(4, 128)
	c := NewController(p, DefaultParams())
	// Node 0: intensive (IPF 1) and starving badly. Nodes 2,3: light.
	starve(p, 0, 0.6)
	d := c.Update([]float64{1, 2, 500, 800})
	if !d.Congested {
		t.Fatal("sigma 0.6 > threshold 0.4 must flag congestion")
	}
	// Mean IPF ~ 325.75: nodes 0,1 below, 2,3 above.
	if d.Rates[0] == 0 || d.Rates[1] == 0 {
		t.Error("network-intensive nodes must be throttled")
	}
	if d.Rates[2] != 0 || d.Rates[3] != 0 {
		t.Error("light nodes must not be throttled")
	}
	if d.ThrottledNodes != 2 {
		t.Errorf("throttled %d nodes, want 2", d.ThrottledNodes)
	}
	// More intensive => throttled harder.
	if d.Rates[0] < d.Rates[1] {
		t.Errorf("IPF 1 rate %v should be >= IPF 2 rate %v", d.Rates[0], d.Rates[1])
	}
	// Rates actually programmed into the hardware gate.
	if p.T.Rate(0) != d.Rates[0] {
		t.Error("controller did not program the throttler")
	}
}

func TestControllerReleasesWhenCalm(t *testing.T) {
	p := NewPolicy(2, 128)
	c := NewController(p, DefaultParams())
	starve(p, 0, 0.6)
	c.Update([]float64{1, 100})
	if p.T.Rate(0) == 0 {
		t.Fatal("setup: node 0 should be throttled")
	}
	// Clear starvation: next epoch must release.
	starve(p, 0, 0)
	d := c.Update([]float64{1, 100})
	if d.Congested {
		t.Error("no starvation must mean no congestion")
	}
	if p.T.Rate(0) != 0 {
		t.Error("rates must be released when congestion clears")
	}
}

func TestControllerIntensityScaledDetection(t *testing.T) {
	// A network-intensive node (IPF 1) naturally starves more: its
	// detection threshold is 0.4. A light node (IPF 100) has threshold
	// ~0.004. The same sigma=0.2 trips detection only via the light node.
	p := NewPolicy(2, 128)
	c := NewController(p, DefaultParams())
	starve(p, 0, 0.2) // intensive node: below its 0.4 threshold
	d := c.Update([]float64{1, 1000})
	if d.Congested {
		t.Error("intensive node at sigma 0.2 must not trip its scaled threshold")
	}
	starve(p, 1, 0.2) // light node: far above its ~0 threshold
	d = c.Update([]float64{1, 1000})
	if !d.Congested {
		t.Error("light node at sigma 0.2 must trip detection")
	}
}

func TestControllerSanitisesIPF(t *testing.T) {
	p := NewPolicy(3, 128)
	c := NewController(p, DefaultParams())
	starve(p, 0, 0.7)
	d := c.Update([]float64{1, 0, math.NaN()})
	// Zero/NaN become IPFCap: only node 0 is below the mean.
	if d.Rates[1] != 0 || d.Rates[2] != 0 {
		t.Error("nodes with no traffic must never be throttled")
	}
	if d.Rates[0] == 0 {
		t.Error("the one intensive node must be throttled")
	}
}

func TestControllerControlPacketCost(t *testing.T) {
	p := NewPolicy(16, 128)
	c := NewController(p, DefaultParams())
	d := c.Update(make([]float64, 16))
	if d.ControlPackets != 32 {
		t.Errorf("control packets = %d, want 2n = 32 (§6.6)", d.ControlPackets)
	}
}

func TestControllerPanicsOnSizeMismatch(t *testing.T) {
	p := NewPolicy(4, 128)
	c := NewController(p, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	c.Update([]float64{1, 2})
}

func TestStaticPolicy(t *testing.T) {
	s := NewStatic(4)
	s.SetAll(0.9)
	s.SetNode(2, 0)
	blocked := 0
	for i := 0; i < MaxCount; i++ {
		if !s.Allow(0) {
			blocked++
		}
		if !s.Allow(2) {
			t.Fatal("unthrottled node blocked")
		}
	}
	if got := float64(blocked) / MaxCount; math.Abs(got-0.9) > 0.01 {
		t.Errorf("node 0 blocked fraction %v, want 0.9", got)
	}
	s.Tick(0, true, false, false)
	if s.M.Rate(0) == 0 {
		t.Error("static policy must still record starvation")
	}
}

func TestDistributedBackoffAndDecay(t *testing.T) {
	d := NewDistributed(2)
	// A signal raises the rate at the next epoch.
	d.OnSignal(0)
	d.Epoch()
	r1 := d.Rate(0)
	if r1 != 0.2 {
		t.Errorf("first backoff rate %v, want Step 0.2", r1)
	}
	d.OnSignal(0)
	d.Epoch()
	r2 := d.Rate(0)
	if r2 <= r1 {
		t.Error("repeated signals must increase the rate multiplicatively")
	}
	// Silence decays.
	d.Epoch()
	if d.Rate(0) >= r2 {
		t.Error("rate must decay without signals")
	}
	for i := 0; i < 20; i++ {
		d.Epoch()
	}
	if d.Rate(0) != 0 {
		t.Errorf("rate must decay to zero, got %v", d.Rate(0))
	}
	if d.Rate(1) != 0 {
		t.Error("unsignalled node must stay unthrottled")
	}
}

func TestDistributedRateCapped(t *testing.T) {
	d := NewDistributed(1)
	for i := 0; i < 50; i++ {
		d.OnSignal(0)
		d.Epoch()
	}
	if d.Rate(0) > d.MaxRate {
		t.Errorf("rate %v exceeds cap %v", d.Rate(0), d.MaxRate)
	}
	if d.Signals() != 50 {
		t.Errorf("signal count %d, want 50", d.Signals())
	}
}

func TestDistributedMarksWhenStarving(t *testing.T) {
	d := NewDistributed(1)
	if d.MarkCongested(0) {
		t.Error("fresh node must not mark")
	}
	for i := 0; i < 128; i++ {
		d.Tick(0, true, false, false)
	}
	if !d.MarkCongested(0) {
		t.Error("fully starved node must mark passing traffic")
	}
}

// Property: throttler long-run block fraction equals the set rate for
// arbitrary rates.
func TestThrottlerRateProperty(t *testing.T) {
	f := func(raw uint8) bool {
		rate := float64(raw%129) / 128
		th := NewThrottler(1)
		th.SetRate(0, rate)
		blocked := 0
		for i := 0; i < MaxCount*64; i++ {
			if !th.Allow(0) {
				blocked++
			}
		}
		got := float64(blocked) / float64(MaxCount*64)
		return math.Abs(got-rate) <= 1.0/MaxCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMonitorTick feeds a precomputed pseudo-random starvation
// stream at 27%, the rate the 8x8 heavy-workload system runs at. A
// periodic pattern would be learned by the branch predictor and hide
// the cost of a branch on the starved bit.
func BenchmarkMonitorTick(b *testing.B) {
	const n = 1 << 16
	starved := make([]bool, n)
	r := rng.New(1)
	for i := range starved {
		starved[i] = r.Bool(0.27)
	}
	m := NewMonitor(64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(i&63, starved[i&(n-1)])
	}
}

func BenchmarkThrottlerAllow(b *testing.B) {
	th := NewThrottler(64)
	th.SetRate(0, 0.5)
	for i := 0; i < b.N; i++ {
		th.Allow(i & 63)
	}
}

func BenchmarkControllerUpdate(b *testing.B) {
	p := NewPolicy(4096, 128)
	c := NewController(p, DefaultParams())
	ipf := make([]float64, 4096)
	for i := range ipf {
		ipf[i] = float64(i%100) + 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(ipf)
	}
}

func TestMinSigmaFloorsDetection(t *testing.T) {
	p := NewPolicy(2, 128)
	c := NewController(p, DefaultParams())
	// A light app (IPF 1000) starved exactly once in the window: below
	// the 1.5/128 floor, so no congestion despite threshold 0.0004.
	starve(p, 1, 1.0/128)
	d := c.Update([]float64{1, 1000})
	if d.Congested {
		t.Error("one starved cycle (measurement noise) must not flag congestion")
	}
	// Two starved cycles clear the floor.
	starve(p, 1, 2.0/128)
	d = c.Update([]float64{1, 1000})
	if !d.Congested {
		t.Error("two starved cycles at a light app must flag congestion")
	}
}
