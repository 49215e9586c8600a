package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nocsim/internal/noc"
)

// EventKind labels one point in a flit's lifecycle.
type EventKind uint8

const (
	// EvEnqueue marks queue entry at the source NIC. It is synthesized
	// from the flit's Enq timestamp when the flit injects, so packets
	// that never leave the NIC do not appear in the trace.
	EvEnqueue EventKind = iota
	// EvInject marks network entry at the source router.
	EvInject
	// EvDeflect marks a non-productive output-port grant.
	EvDeflect
	// EvBuffer marks entry into an in-network buffer (a BLESS side
	// buffer, a VC input buffer, or a ring-bridge transfer FIFO).
	EvBuffer
	// EvEject marks ejection into the destination NIC.
	EvEject
	// EvDrop marks a discarded flit. No current fabric is lossy; the
	// kind is defined so lossy extensions trace without schema changes.
	EvDrop
)

func (k EventKind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvInject:
		return "inject"
	case EvDeflect:
		return "deflect"
	case EvBuffer:
		return "buffer"
	case EvEject:
		return "eject"
	case EvDrop:
		return "drop"
	}
	return "unknown"
}

// Event is one recorded lifecycle point. Span events (inject, eject)
// carry Start, the cycle the spanned interval began (queue entry resp.
// network entry), so the exporter can emit durations without pairing
// up records.
type Event struct {
	Cycle int64
	Start int64
	Seq   uint64
	Node  int32
	Src   int32
	Dst   int32
	Index uint8
	PKind noc.Kind
	Kind  EventKind
}

// Tracer records lifecycle events for a deterministic sample of
// packets into bounded per-node rings. When a ring fills, its oldest
// events are overwritten (the drop count is kept so exports can report
// truncation).
type Tracer struct {
	mod     uint64
	ringCap int

	rings [][]Event
	next  []int32 // per-node write cursor
	lost  []int64 // per-node overwritten-event count
}

// NewTracer samples roughly 1/sample of all packets into per-node
// rings splitting budget events across nodes (at least 64 per node).
func NewTracer(nodes, budget int, sample uint64) *Tracer {
	if nodes <= 0 {
		panic("obs: tracer needs at least one node")
	}
	if sample == 0 {
		sample = 1
	}
	per := budget / nodes
	if per < 64 {
		per = 64
	}
	t := &Tracer{
		mod:     sample,
		ringCap: per,
		rings:   make([][]Event, nodes),
		next:    make([]int32, nodes),
		lost:    make([]int64, nodes),
	}
	return t
}

// Sampled reports whether packets with this sequence number are being
// traced. Fabrics may use it to skip event assembly entirely.
func (t *Tracer) Sampled(seq uint64) bool {
	return t.mod == 1 || mix64(seq)%t.mod == 0
}

func (t *Tracer) record(node int, ev Event) {
	ring := t.rings[node]
	if ring == nil {
		ring = make([]Event, 0, t.ringCap)
	}
	if len(ring) < t.ringCap {
		t.rings[node] = append(ring, ev)
		return
	}
	ring[t.next[node]] = ev
	t.next[node]++
	if int(t.next[node]) == t.ringCap {
		t.next[node] = 0
	}
	t.lost[node]++
}

// Inject records network entry (and synthesizes the enqueue event from
// the flit's queue-entry timestamp for head flits).
func (t *Tracer) Inject(cycle int64, node int, f *noc.Flit) {
	if !t.Sampled(f.Seq) {
		return
	}
	ev := Event{
		Cycle: cycle, Start: f.Enq, Seq: f.Seq,
		Node: int32(node), Src: f.Src, Dst: f.Dst,
		Index: f.Index, PKind: f.Kind, Kind: EvInject,
	}
	if f.Index == 0 {
		enq := ev
		enq.Cycle = f.Enq
		enq.Start = f.Enq
		enq.Kind = EvEnqueue
		t.record(node, enq)
	}
	t.record(node, ev)
}

// Deflect records a non-productive port grant.
func (t *Tracer) Deflect(cycle int64, node int, f *noc.Flit) {
	t.instant(cycle, node, f, EvDeflect)
}

// Buffer records entry into an in-network buffer.
func (t *Tracer) Buffer(cycle int64, node int, f *noc.Flit) {
	t.instant(cycle, node, f, EvBuffer)
}

// Drop records a discarded flit.
func (t *Tracer) Drop(cycle int64, node int, f *noc.Flit) {
	t.instant(cycle, node, f, EvDrop)
}

func (t *Tracer) instant(cycle int64, node int, f *noc.Flit, k EventKind) {
	if !t.Sampled(f.Seq) {
		return
	}
	t.record(node, Event{
		Cycle: cycle, Start: cycle, Seq: f.Seq,
		Node: int32(node), Src: f.Src, Dst: f.Dst,
		Index: f.Index, PKind: f.Kind, Kind: k,
	})
}

// Eject records ejection; the span start is the flit's injection cycle.
func (t *Tracer) Eject(cycle int64, node int, f *noc.Flit) {
	if !t.Sampled(f.Seq) {
		return
	}
	t.record(node, Event{
		Cycle: cycle, Start: f.Inject, Seq: f.Seq,
		Node: int32(node), Src: f.Src, Dst: f.Dst,
		Index: f.Index, PKind: f.Kind, Kind: EvEject,
	})
}

// Events returns every recorded event in the canonical order (cycle,
// then packet, then kind, then node, then flit index): a global order
// independent of ring layout.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, ring := range t.rings {
		out = append(out, ring...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Index < b.Index
	})
	return out
}

// Lost returns the number of events overwritten by full rings.
func (t *Tracer) Lost() int64 {
	var n int64
	for _, l := range t.lost {
		n += l
	}
	return n
}

// ChromeEvent is one record of the Chrome trace-event format
// (Perfetto's legacy JSON ingestion). The flit tracer presents
// simulated cycles as microseconds, so 1 cycle renders as 1 us; other
// producers (the serve layer's job spans) put real microseconds in Ts.
type ChromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int64  `json:"pid"`
	Tid  uint64 `json:"tid"`
	S    string `json:"s,omitempty"`
	Args any    `json:"args,omitempty"`
}

type chromeArgs struct {
	Seq   uint64 `json:"seq"`
	Src   int32  `json:"src"`
	Dst   int32  `json:"dst"`
	Node  int32  `json:"node"`
	Flit  uint8  `json:"flit"`
	PKind string `json:"packet_kind"`
}

// chromeTrace is the top-level trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeJSON wraps events in the top-level Chrome trace-event
// object and writes it. Every trace-JSON producer (the flit tracer,
// the serve layer's job spans) funnels through here so the envelope
// stays in one place.
func WriteChromeJSON(w io.Writer, events []ChromeEvent) error {
	out := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	return nil
}

// WriteChromeTrace exports the trace in Chrome trace-event JSON. Each
// packet is one track (pid = source node, tid = packet sequence):
// "queue" and "net" complete events span NIC waiting and network
// transit per flit, and deflections/bufferings/drops appear as instant
// events on the same track, positioned at the router that acted.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := make([]ChromeEvent, 0, len(evs))
	for _, ev := range evs {
		ce := ChromeEvent{
			Cat: ev.PKind.String(),
			Ts:  ev.Start,
			Pid: int64(ev.Src),
			Tid: ev.Seq,
			Args: &chromeArgs{
				Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst, Node: ev.Node,
				Flit: ev.Index, PKind: ev.PKind.String(),
			},
		}
		switch ev.Kind {
		case EvEnqueue:
			ce.Name = "enqueue"
			ce.Ph = "i"
			ce.S = "t"
			ce.Ts = ev.Cycle
		case EvInject:
			ce.Name = "queue"
			ce.Ph = "X"
			ce.Dur = ev.Cycle - ev.Start
		case EvEject:
			ce.Name = "net"
			ce.Ph = "X"
			ce.Dur = ev.Cycle - ev.Start
		default:
			ce.Name = ev.Kind.String()
			ce.Ph = "i"
			ce.S = "t"
			ce.Ts = ev.Cycle
		}
		out = append(out, ce)
	}
	return WriteChromeJSON(w, out)
}
