package noc

// InjectionPolicy is the hook through which a congestion controller
// governs and observes network admission. The fabrics consult it on the
// injection path of every node:
//
//   - Allow is called when a node wants to inject a Request flit and the
//     router has capacity for it this cycle (a free output link in BLESS,
//     a free VC/credit in the buffered router). Returning false blocks the
//     injection, exactly like Algorithm 3's deterministic throttler.
//     Reply and Control flits bypass Allow entirely.
//   - Tick is called once per node per cycle with the injection outcome:
//     wanted means the node had a flit to inject; injected means one
//     actually entered the network; throttled means the network had room
//     but the policy itself blocked the injection. A starved cycle —
//     §3.1's definition, and Algorithm 2's input — is one the *network*
//     refused: wanted && !injected && !throttled. Voluntary restraint is
//     not starvation; counting it would both invert the Fig. 9 result
//     and latch the controller on through its own throttling.
//   - MarkCongested reports whether flits passing through the node should
//     have their congestion bit set; only the distributed controller
//     (§6.6) uses it.
type InjectionPolicy interface {
	Allow(node int) bool
	Tick(node int, wanted, injected, throttled bool)
	MarkCongested(node int) bool
}

// IdleTicker is an optional InjectionPolicy extension that lets a
// fabric skip idle nodes without desynchronising the policy's
// per-cycle state. A node the fabric skips would have received
// Tick(node, false, false, false) on every skipped cycle; TickIdle
// applies exactly that effect for `cycles` consecutive cycles in one
// call (e.g. core.Monitor fast-forwards its starvation shift window).
// Fabrics only enable idle-node skipping for policies that implement
// IdleTicker (or for the stateless Open policy).
type IdleTicker interface {
	TickIdle(node int, cycles int64)
}

// Open is an InjectionPolicy that never throttles and observes nothing.
// It is the baseline (unthrottled BLESS / buffered) configuration.
type Open struct{}

// Allow always permits injection.
func (Open) Allow(int) bool { return true }

// Tick discards the observation.
func (Open) Tick(int, bool, bool, bool) {}

// MarkCongested never marks.
func (Open) MarkCongested(int) bool { return false }
