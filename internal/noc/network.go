package noc

import (
	"nocsim/internal/snap"
	"nocsim/internal/topology"
)

// Network is a cycle-stepped on-chip fabric. The bufferless BLESS
// fabric, the buffered virtual-channel fabric and the hierarchical
// rings all implement it, so the system simulator and the experiment
// harness are architecture-agnostic.
//
// The contract per Step:
//   - every node's NIC head flit is considered for injection, subject to
//     the fabric's admission rule and the InjectionPolicy;
//   - flits arriving at their destination are ejected into the NIC,
//     which reassembles packets (readable via NIC(i).Delivered());
//   - Stats counters advance.
type Network interface {
	// Step advances the fabric by one clock cycle.
	Step()
	// Cycle returns the number of completed cycles.
	Cycle() int64
	// NIC returns node i's network interface.
	NIC(i int) *NIC
	// Stats returns the accumulated counters. The returned value reflects
	// all cycles completed so far.
	Stats() Stats
	// Topology returns the fabric's topology.
	Topology() *topology.Topology
	// Drained reports whether no flit is in flight or queued anywhere;
	// used by tests and by end-of-run draining.
	Drained() bool
	// InFlight returns the number of flits inside the network.
	InFlight() int64
	// ActiveSet reports whether idle-unit skipping is engaged and, if
	// so, how many units (routers or rings) are currently active.
	ActiveSet() (active int, enabled bool)
	// SyncPolicy flushes every idle tick the active set deferred, so
	// the injection policy's observable state matches a fabric that
	// ticked all nodes every cycle. Anything reading policy state from
	// outside the fabric — e.g. a controller epoch collecting
	// starvation rates — must call it first.
	SyncPolicy()
	// Snapshot encodes the fabric's complete dynamic state; Restore
	// overlays it onto a fabric freshly constructed with the same
	// configuration.
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader)
}
