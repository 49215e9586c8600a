package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"nocsim/internal/noc"
)

// Sample is one interval of the time series: the fabric-counter delta
// over the window plus the application-layer signals the paper's
// dynamic figures plot. All fields are deltas or window rates, not
// cumulative totals, so plotting a column directly gives the time
// dynamics.
type Sample struct {
	// Cycle is the window's end cycle (samples cover (Cycle-N, Cycle]).
	Cycle int64 `json:"cycle"`
	// IPC is the system throughput over the window (sum of per-node
	// retired instructions / window cycles).
	IPC float64 `json:"ipc"`
	// IPF is the aggregate instructions-per-flit over the window; 0
	// when no misses were sent.
	IPF float64 `json:"ipf"`
	// ThrottleRate and StarvationRate are the fraction of active
	// node-cycles spent policy-blocked resp. network-refused.
	ThrottleRate   float64 `json:"throttle_rate"`
	StarvationRate float64 `json:"starvation_rate"`
	// Utilization and AvgNetLatency are the window's network-layer
	// derived metrics.
	Utilization   float64 `json:"utilization"`
	AvgNetLatency float64 `json:"avg_net_latency"`
	// Net is the raw fabric-counter delta over the window.
	Net noc.Stats `json:"net"`
}

// Sampler accumulates the interval time series. It is fed from the
// simulator's step loop (single goroutine, between cycles) and is
// deterministic by construction: every field derives from the
// cumulative fabric counters and core totals.
type Sampler struct {
	// Interval is the sampling period in cycles.
	Interval int64

	meta        Meta
	samples     []Sample
	sink        func(Sample)
	prevNet     noc.Stats
	prevRetired int64
	prevMisses  int64
}

// NewSampler returns a sampler recording every interval cycles.
func NewSampler(interval int64, m Meta) *Sampler {
	if interval <= 0 {
		panic("obs: sampler interval must be positive")
	}
	return &Sampler{Interval: interval, meta: m}
}

// Record closes the window ending at cycle: net is the cumulative
// fabric counter snapshot, retired and misses the cumulative core
// totals. Deltas against the previous window are derived here.
func (s *Sampler) Record(cycle int64, net noc.Stats, retired, misses int64) {
	d := net.Sub(s.prevNet)
	dRetired := retired - s.prevRetired
	dMisses := misses - s.prevMisses
	s.prevNet = net
	s.prevRetired = retired
	s.prevMisses = misses

	sm := Sample{
		Cycle:         cycle,
		Net:           d,
		Utilization:   d.Utilization(),
		AvgNetLatency: d.AvgNetLatency(),
	}
	if d.Cycles > 0 {
		sm.IPC = float64(dRetired) / float64(d.Cycles)
		if s.meta.ActiveNodes > 0 {
			nodeCycles := float64(d.Cycles) * float64(s.meta.ActiveNodes)
			sm.ThrottleRate = float64(d.ThrottledCycles) / nodeCycles
			sm.StarvationRate = float64(d.StarvedCycles) / nodeCycles
		}
	}
	if dMisses > 0 && s.meta.FlitsPerMiss > 0 {
		sm.IPF = float64(dRetired) / (float64(dMisses) * s.meta.FlitsPerMiss)
	}
	s.samples = append(s.samples, sm)
	if s.sink != nil {
		s.sink(sm)
	}
}

// SetSink registers fn to receive every subsequently recorded sample,
// synchronously on the recording goroutine (the simulator's step loop,
// between cycles). Streaming consumers — the serve layer's live run
// event streams — attach here; the sink observes the same deterministic
// series the exports contain and cannot perturb it. Samples recorded
// before attachment (a checkpoint-restored prefix, say) are replayed to
// fn immediately, so a consumer attaching to a warm-started run still
// sees the full series. A nil fn detaches.
func (s *Sampler) SetSink(fn func(Sample)) {
	s.sink = fn
	if fn == nil {
		return
	}
	for _, sm := range s.samples {
		fn(sm)
	}
}

// Samples returns the recorded series (shared backing array; callers
// must not mutate).
func (s *Sampler) Samples() []Sample { return s.samples }

// WriteJSONL writes the series as one JSON object per line. Field
// order follows the struct declarations, so the output is byte-stable.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	for i := range s.samples {
		b, err := json.Marshal(&s.samples[i])
		if err != nil {
			return fmt.Errorf("obs: encoding sample: %w", err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader lists the CSV columns, one per plottable signal plus the
// key raw counters.
const csvHeader = "cycle,ipc,ipf,throttle_rate,starvation_rate,utilization,avg_net_latency,flits_injected,flits_ejected,deflections,starved_cycles,throttled_cycles\n"

// WriteCSV writes the series as a flat table for spreadsheet and
// plotting tools.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	buf := make([]byte, 0, 160)
	for i := range s.samples {
		sm := &s.samples[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, sm.Cycle, 10)
		for _, f := range [...]float64{sm.IPC, sm.IPF, sm.ThrottleRate, sm.StarvationRate, sm.Utilization, sm.AvgNetLatency} {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		}
		for _, n := range [...]int64{sm.Net.FlitsInjected, sm.Net.FlitsEjected, sm.Net.Deflections, sm.Net.StarvedCycles, sm.Net.ThrottledCycles} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, n, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
