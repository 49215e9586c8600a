package noc

// Stats accumulates fabric-level counters. The power model and all
// network-layer metrics in the evaluation (latency, utilization,
// deflection rate, starvation) derive from these.
type Stats struct {
	Cycles int64
	Links  int // unidirectional inter-router links in the fabric

	FlitsInjected    int64
	FlitsEjected     int64
	PacketsDelivered int64

	// Deflections counts flits granted a non-productive output port.
	Deflections int64
	// LinkTraversals counts busy link-cycles on inter-router links;
	// utilization = LinkTraversals / (Links * Cycles).
	LinkTraversals int64

	// Latency sums, in cycles. Net latency is per ejected flit
	// (eject - inject); queue latency is per injected flit
	// (inject - enqueue); packet latency is per delivered packet
	// (eject - enqueue), i.e. end to end.
	NetFlitLatencySum int64
	QueueLatencySum   int64
	PacketLatencySum  int64

	// StarvedCycles counts node-cycles in which a node wanted to inject
	// but the network refused (no free output link / no VC credit).
	// ThrottledCycles counts node-cycles blocked by the injection policy
	// instead (voluntary restraint, not starvation). WantedCycles counts
	// node-cycles with a flit at the head of an injection queue.
	StarvedCycles   int64
	ThrottledCycles int64
	WantedCycles    int64

	// Power-model event counters. The bufferless fabric never touches
	// router buffers; the buffered fabric counts one write on arrival and
	// one read on switch traversal per flit.
	BufferReads        int64
	BufferWrites       int64
	CrossbarTraversals int64
	Arbitrations       int64
}

// Utilization returns the average fraction of inter-router links busy
// per cycle.
func (s Stats) Utilization() float64 {
	if s.Cycles == 0 || s.Links == 0 {
		return 0
	}
	return float64(s.LinkTraversals) / (float64(s.Links) * float64(s.Cycles))
}

// AvgNetLatency returns the mean per-flit in-network latency in cycles.
func (s Stats) AvgNetLatency() float64 {
	if s.FlitsEjected == 0 {
		return 0
	}
	return float64(s.NetFlitLatencySum) / float64(s.FlitsEjected)
}

// AvgQueueLatency returns the mean injection-queue wait in cycles.
func (s Stats) AvgQueueLatency() float64 {
	if s.FlitsInjected == 0 {
		return 0
	}
	return float64(s.QueueLatencySum) / float64(s.FlitsInjected)
}

// AvgPacketLatency returns the mean end-to-end packet latency in cycles.
func (s Stats) AvgPacketLatency() float64 {
	if s.PacketsDelivered == 0 {
		return 0
	}
	return float64(s.PacketLatencySum) / float64(s.PacketsDelivered)
}

// DeflectionRate returns deflections per link traversal.
func (s Stats) DeflectionRate() float64 {
	if s.LinkTraversals == 0 {
		return 0
	}
	return float64(s.Deflections) / float64(s.LinkTraversals)
}

// StarvationRate returns the network-wide fraction of node-cycles with a
// blocked injection attempt, out of all node-cycles, given the node
// count. (Per-node windowed starvation is tracked by core.Monitor.)
func (s Stats) StarvationRate(nodes int) float64 {
	if s.Cycles == 0 || nodes == 0 {
		return 0
	}
	return float64(s.StarvedCycles) / (float64(s.Cycles) * float64(nodes))
}

// Sub returns s - o, the delta of two snapshots. Links is preserved.
func (s Stats) Sub(o Stats) Stats {
	d := s
	d.Cycles -= o.Cycles
	d.FlitsInjected -= o.FlitsInjected
	d.FlitsEjected -= o.FlitsEjected
	d.PacketsDelivered -= o.PacketsDelivered
	d.Deflections -= o.Deflections
	d.LinkTraversals -= o.LinkTraversals
	d.NetFlitLatencySum -= o.NetFlitLatencySum
	d.QueueLatencySum -= o.QueueLatencySum
	d.PacketLatencySum -= o.PacketLatencySum
	d.StarvedCycles -= o.StarvedCycles
	d.ThrottledCycles -= o.ThrottledCycles
	d.WantedCycles -= o.WantedCycles
	d.BufferReads -= o.BufferReads
	d.BufferWrites -= o.BufferWrites
	d.CrossbarTraversals -= o.CrossbarTraversals
	d.Arbitrations -= o.Arbitrations
	return d
}
