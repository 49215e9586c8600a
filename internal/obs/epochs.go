package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"nocsim/internal/noc"
)

// The congestion decision ledger: a cycle-indexed record of every
// input and output of the throttling decision, one entry per
// controller epoch. The paper's headline result is application-aware
// congestion control, yet end-of-run counters cannot answer "why did
// the controller throttle node 7 at epoch 12" — the ledger can: it
// keeps the per-node IPF/MPKI evidence the controller saw, the rates
// it chose, and the network-layer state (utilization, deflection,
// ejection, starvation) over the same window.
//
// Determinism: the ledger is fed from the simulator's epoch hook
// (sequential, between cycles), so its exports are byte-identical at
// any -parallel setting and across cold vs warm-forked runs of the same plan.

// EpochNode is one node's evidence row within an epoch: what the
// controller read (IPF, MPKI) and what it applied (sigma, rate).
type EpochNode struct {
	// Node is the node index.
	Node int32 `json:"node"`
	// IPF is the node's instructions-per-flit over the epoch (the
	// controller's application-intensity signal).
	IPF float64 `json:"ipf"`
	// MPKI is the node's L1 misses per kilo-instruction over the epoch.
	MPKI float64 `json:"mpki"`
	// Sigma is the node's measured starvation rate fed to the policy.
	Sigma float64 `json:"sigma"`
	// Rate is the throttling rate applied to the node after the epoch's
	// decision (0 = unthrottled).
	Rate float64 `json:"rate"`
}

// EpochDecision carries the controller's outputs into the ledger.
// Ran is false for epochs where no centralized decision executed (no
// controller, or the distributed scheme, which has no global view).
type EpochDecision struct {
	Ran            bool
	Congested      bool
	MeanIPF        float64
	ThrottledNodes int
	ControlPackets int
}

// EpochRecord is one ledger entry: the decision plus the network-layer
// window it was made in. Network rates are derived from the fabric
// counter delta over (Cycle-epoch, Cycle].
type EpochRecord struct {
	// Epoch is the 1-based epoch index; Cycle the epoch's end cycle.
	Epoch int64 `json:"epoch"`
	Cycle int64 `json:"cycle"`
	// DecisionRan reports whether a centralized controller executed
	// this epoch; the decision fields below are zero when it did not.
	DecisionRan bool `json:"decision_ran"`
	// Congested, MeanIPF, ThrottledNodes and ControlPackets are the
	// decision outputs (core.Decision, flattened).
	Congested      bool    `json:"congested"`
	MeanIPF        float64 `json:"mean_ipf"`
	ThrottledNodes int     `json:"throttled_nodes"`
	ControlPackets int     `json:"control_packets"`
	// Utilization, DeflectionRate, EjectionRate and StarvationRate are
	// the network-layer window rates the decision reacted to.
	Utilization    float64 `json:"utilization"`
	DeflectionRate float64 `json:"deflection_rate"`
	EjectionRate   float64 `json:"ejection_rate"`
	StarvationRate float64 `json:"starvation_rate"`
	// Nodes holds one evidence row per node, in node order.
	Nodes []EpochNode `json:"nodes"`
}

// EpochLedger accumulates the decision records. Like the Sampler it is
// fed between cycles on the stepping goroutine from the cumulative
// counters, so the series is deterministic by construction.
type EpochLedger struct {
	meta    Meta
	records []EpochRecord
	sink    func(EpochRecord)
	prevNet noc.Stats
}

// NewEpochLedger returns an empty ledger.
func NewEpochLedger(m Meta) *EpochLedger {
	return &EpochLedger{meta: m}
}

// Record closes the epoch ending at cycle: net is the cumulative
// fabric counter snapshot, dec the controller's outputs, nodes the
// per-node evidence rows (scratch owned by the caller; copied here).
func (l *EpochLedger) Record(epoch, cycle int64, net noc.Stats, dec EpochDecision, nodes []EpochNode) {
	d := net.Sub(l.prevNet)
	l.prevNet = net

	rec := EpochRecord{
		Epoch:          epoch,
		Cycle:          cycle,
		DecisionRan:    dec.Ran,
		Congested:      dec.Congested,
		MeanIPF:        dec.MeanIPF,
		ThrottledNodes: dec.ThrottledNodes,
		ControlPackets: dec.ControlPackets,
		Utilization:    d.Utilization(),
		DeflectionRate: d.DeflectionRate(),
		Nodes:          append([]EpochNode(nil), nodes...),
	}
	if d.Cycles > 0 && l.meta.Nodes > 0 {
		rec.EjectionRate = float64(d.FlitsEjected) / (float64(d.Cycles) * float64(l.meta.Nodes))
	}
	if d.Cycles > 0 && l.meta.ActiveNodes > 0 {
		rec.StarvationRate = float64(d.StarvedCycles) / (float64(d.Cycles) * float64(l.meta.ActiveNodes))
	}
	l.records = append(l.records, rec)
	if l.sink != nil {
		l.sink(rec)
	}
}

// Records returns the recorded series (shared backing array; callers
// must not mutate).
func (l *EpochLedger) Records() []EpochRecord { return l.records }

// SetSink registers fn to receive every subsequently recorded entry,
// synchronously on the recording goroutine. Entries recorded before
// attachment are replayed immediately, so a consumer attaching to a
// checkpoint-restored run still sees the full ledger. A nil fn
// detaches. (Same contract as Sampler.SetSink.)
func (l *EpochLedger) SetSink(fn func(EpochRecord)) {
	l.sink = fn
	if fn == nil {
		return
	}
	for _, rec := range l.records {
		fn(rec)
	}
}

// WriteJSONL writes the ledger as one JSON object per line. Field
// order follows the struct declarations, so the output is byte-stable.
func (l *EpochLedger) WriteJSONL(w io.Writer) error {
	for i := range l.records {
		b, err := json.Marshal(&l.records[i])
		if err != nil {
			return fmt.Errorf("obs: encoding epoch record: %w", err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// epochCSVHeader lists the CSV columns: one row per (epoch, node) with
// the epoch-level decision and window columns repeated, so the table
// slices cleanly by either axis.
const epochCSVHeader = "epoch,cycle,decision_ran,congested,mean_ipf,throttled_nodes,control_packets,utilization,deflection_rate,ejection_rate,starvation_rate,node,ipf,mpki,sigma,rate\n"

// WriteCSV writes the ledger as a flat per-node table.
func (l *EpochLedger) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, epochCSVHeader); err != nil {
		return err
	}
	buf := make([]byte, 0, 192)
	for i := range l.records {
		rec := &l.records[i]
		for j := range rec.Nodes {
			nd := &rec.Nodes[j]
			buf = buf[:0]
			buf = strconv.AppendInt(buf, rec.Epoch, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, rec.Cycle, 10)
			buf = append(buf, ',')
			buf = strconv.AppendBool(buf, rec.DecisionRan)
			buf = append(buf, ',')
			buf = strconv.AppendBool(buf, rec.Congested)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, rec.MeanIPF, 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(rec.ThrottledNodes), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(rec.ControlPackets), 10)
			for _, f := range [...]float64{rec.Utilization, rec.DeflectionRate, rec.EjectionRate, rec.StarvationRate} {
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
			}
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(nd.Node), 10)
			for _, f := range [...]float64{nd.IPF, nd.MPKI, nd.Sigma, nd.Rate} {
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
			}
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
