package obs

import (
	"nocsim/internal/noc"
	"nocsim/internal/snap"
)

// Checkpoint codec for the observability collectors. Collector state is
// part of the simulation contract — a run extended from a checkpoint
// must export byte-identical time series, traces and heatmaps to a
// straight run — so samples, tracer rings and spatial grids are encoded
// in full. Sampling parameters (interval, trace modulus, ring capacity)
// are construction inputs and come from the restored configuration; a
// collector present in the blob but not in the configuration, or the
// other way round, fails the decode.

func init() {
	snap.Cover(Observer{}, snap.Coverage{
		Serialized: []string{"Sampler", "Tracer", "Spatial", "Epochs"},
	})
	snap.CoverConfig(Options{})
	snap.Cover(Meta{}, snap.Coverage{
		Waived: map[string]string{
			"Nodes":        "config: derived from the topology",
			"Width":        "config: derived from the topology",
			"Height":       "config: derived from the topology",
			"ActiveNodes":  "config: derived from the app assignment",
			"FlitsPerMiss": "config: derived from the packet sizes",
		},
	})
	snap.Cover(Probe{}, snap.Coverage{
		Waived: map[string]string{
			"Tracer":  "construction: capability view of the observer",
			"Spatial": "construction: capability view of the observer",
		},
	})
	snap.Cover(Sampler{}, snap.Coverage{
		Serialized: []string{"samples", "prevNet", "prevRetired", "prevMisses"},
		Waived: map[string]string{
			"Interval": "config: construction input",
			"meta":     "config: construction input",
			"sink":     "construction: streaming consumers re-attach after restore (SetSink replays)",
		},
	})
	snap.Cover(Sample{}, snap.Coverage{
		Serialized: []string{
			"Cycle", "IPC", "IPF", "ThrottleRate", "StarvationRate",
			"Utilization", "AvgNetLatency", "Net",
		},
	})
	snap.Cover(Tracer{}, snap.Coverage{
		Serialized: []string{"rings", "next", "lost"},
		Waived: map[string]string{
			"mod":     "config: construction input",
			"ringCap": "config: construction input",
		},
	})
	snap.Cover(Event{}, snap.Coverage{
		Serialized: []string{
			"Cycle", "Start", "Seq", "Node", "Src", "Dst",
			"Index", "PKind", "Kind",
		},
	})
	snap.Cover(EpochLedger{}, snap.Coverage{
		Serialized: []string{"records", "prevNet"},
		Waived: map[string]string{
			"meta": "config: construction input",
			"sink": "construction: streaming consumers re-attach after restore (SetSink replays)",
		},
	})
	snap.Cover(EpochRecord{}, snap.Coverage{
		Serialized: []string{
			"Epoch", "Cycle", "DecisionRan", "Congested", "MeanIPF",
			"ThrottledNodes", "ControlPackets", "Utilization",
			"DeflectionRate", "EjectionRate", "StarvationRate", "Nodes",
		},
	})
	snap.Cover(EpochNode{}, snap.Coverage{
		Serialized: []string{"Node", "IPF", "MPKI", "Sigma", "Rate"},
	})
	snap.Cover(Spatial{}, snap.Coverage{
		Serialized: []string{
			"link", "injected", "ejected", "deflected", "starved", "throttled",
		},
		Waived: map[string]string{
			"meta": "config: construction input",
		},
	})
}

// Prime sets the collectors' delta baselines to the given cumulative
// totals, so the first sample window and ledger epoch after a
// warm-start fork cover only post-fork activity (the warmup prefix ran
// unobserved).
func (o *Observer) Prime(net noc.Stats, retired, misses int64) {
	if o.Sampler != nil {
		o.Sampler.prevNet, o.Sampler.prevRetired, o.Sampler.prevMisses = net, retired, misses
	}
	if o.Epochs != nil {
		o.Epochs.prevNet = net
	}
}

// DecodeSnap checks the ring bounds the walker cannot see: no ring
// beyond its capacity, every write cursor inside it.
func (t *Tracer) DecodeSnap(r *snap.Reader) {
	for node, ring := range t.rings {
		if len(ring) > t.ringCap || t.next[node] < 0 || int(t.next[node]) >= t.ringCap {
			r.Failf("tracer ring %d holds %d events at cursor %d, capacity %d", node, len(ring), t.next[node], t.ringCap)
			return
		}
	}
}
