package noc

import "errors"

// Pooled flit storage for the fabric hot paths.
//
// The fabrics used to carry full 56-byte Flit values through their link
// pipelines and phase-1/phase-2 hand-off buffers, so stepping a large
// idle-ish mesh meant sweeping hundreds of kilobytes of mostly-empty
// slots every cycle. A FlitPool stores each in-network flit once, in a
// structure-of-arrays layout, and the pipelines carry 4-byte Handles
// instead: a node's twelve pipeline slots shrink from 768 bytes to 48
// — one cache line — and an empty slot is a single zero word.
//
// The layout is two planes rather than one array of structs:
//
//   - FlitHot holds the fields arbitration and routing touch every hop
//     (age order, destination, per-hop VC/congestion state).
//   - FlitCold holds the fields read only at injection and ejection
//     (source, queue-entry time, correlation token).
//
// so the per-hop working set of a flit is one 32-byte hot entry, not
// the whole flit. TestFlitPoolCoversFlit pins, by reflection, that the
// two planes partition Flit exactly: a field added to Flit without a
// pool home fails the build's tests rather than silently leaking state
// between recycled slots.
//
// Growth contract: Alloc and Free never grow any slice. All growth
// happens in Reserve, which the fabric calls once at the top of Step;
// Reserve also keeps the free list's capacity at the pool capacity so
// a Free can never reallocate.

// Handle names one pooled flit; the zero Handle means "no flit", so an
// empty pipeline slot is a zero word and slot 0 of the pool is never
// handed out.
type Handle uint32

// FlitHot is the per-hop plane of a pooled flit: every field the
// arbitration/routing inner loops read. Field names match noc.Flit.
type FlitHot struct {
	Inject  int64
	Seq     uint64
	Dst     int32
	Index   uint8
	Len     uint8
	Kind    Kind
	VC      int8
	CongBit bool
}

// FlitCold is the end-point plane of a pooled flit: fields read only
// at injection and ejection. Field names match noc.Flit.
type FlitCold struct {
	Enq   int64
	Token uint64
	Src   int32
}

// OlderHot is Older on the hot plane: the same Oldest-First total
// order (injection cycle, then packet sequence, then flit index)
// without assembling a full Flit.
func OlderHot(a, b *FlitHot) bool {
	if a.Inject != b.Inject {
		return a.Inject < b.Inject
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Index < b.Index
}

// FlitPool is a structure-of-arrays flit store with one free list.
// See the file comment for the growth contract.
type FlitPool struct {
	hot  []FlitHot
	cold []FlitCold
	free []Handle
}

// NewFlitPool creates an empty pool. Slot 0 is reserved as the nil
// Handle.
func NewFlitPool() *FlitPool {
	return &FlitPool{
		hot:  make([]FlitHot, 1),
		cold: make([]FlitCold, 1),
	}
}

// Reserve guarantees need Allocs succeed before the next Reserve. When
// the free list is short the pool grows by at least a doubling, so a
// fabric at steady state stops growing — and therefore stops
// allocating — after warm-up.
func (p *FlitPool) Reserve(need int) {
	free := len(p.free)
	if free >= need {
		return
	}
	grow := need - free
	if g := len(p.hot); g > grow {
		grow = g
	}
	if grow < 64 {
		grow = 64
	}
	base := len(p.hot)
	p.hot = append(p.hot, make([]FlitHot, grow)...)
	p.cold = append(p.cold, make([]FlitCold, grow)...)
	for i := 0; i < grow; i++ {
		p.free = append(p.free, Handle(base+i))
	}
	// The free list must be able to hold every slot in the pool, so a
	// Free never reallocates.
	if limit := len(p.hot); cap(p.free) < limit {
		nl := make([]Handle, len(p.free), limit)
		copy(nl, p.free)
		p.free = nl
	}
}

// errExhausted is Alloc's panic value. A prebuilt error keeps the panic
// path free of boxing where Alloc is inlined into the fabrics' loops.
var errExhausted = errors.New("noc: flit pool exhausted; fabric did not Reserve enough")

// Alloc takes a handle from the free list and fills both planes from
// f. It panics if the Reserve budget is exhausted.
func (p *FlitPool) Alloc(f *Flit) Handle {
	n := len(p.free)
	if n == 0 {
		panic(errExhausted)
	}
	h := p.free[n-1]
	p.free = p.free[:n-1]
	p.hot[h] = FlitHot{
		Inject:  f.Inject,
		Seq:     f.Seq,
		Dst:     f.Dst,
		Index:   f.Index,
		Len:     f.Len,
		Kind:    f.Kind,
		VC:      f.VC,
		CongBit: f.CongBit,
	}
	p.cold[h] = FlitCold{Enq: f.Enq, Token: f.Token, Src: f.Src}
	return h
}

// Free zeroes both planes of h and returns it to the free list, so a
// recycled slot can never leak a previous packet's state.
func (p *FlitPool) Free(h Handle) {
	p.hot[h] = FlitHot{}
	p.cold[h] = FlitCold{}
	p.free = append(p.free, h)
}

// Get assembles the full Flit for h into f.
func (p *FlitPool) Get(h Handle, f *Flit) {
	hot := &p.hot[h]
	cold := &p.cold[h]
	*f = Flit{
		Enq:     cold.Enq,
		Inject:  hot.Inject,
		Seq:     hot.Seq,
		Token:   cold.Token,
		Src:     cold.Src,
		Dst:     hot.Dst,
		Index:   hot.Index,
		Len:     hot.Len,
		Kind:    hot.Kind,
		VC:      hot.VC,
		CongBit: hot.CongBit,
	}
}

// Hot returns the hot plane of h. The pointer is valid until the next
// Reserve.
func (p *FlitPool) Hot(h Handle) *FlitHot { return &p.hot[h] }

// HotPlane returns the whole hot-plane slice, valid until the next
// Reserve. Fabrics cache it across one step so per-flit accesses are a
// single indexed load instead of two pointer chases through the pool.
func (p *FlitPool) HotPlane() []FlitHot { return p.hot }

// Cold returns the cold plane of h. The pointer is valid until the
// next Reserve.
func (p *FlitPool) Cold(h Handle) *FlitCold { return &p.cold[h] }

// Cap returns the number of allocatable slots in the pool.
func (p *FlitPool) Cap() int { return len(p.hot) - 1 }

// FreeSlots returns the number of free handles.
func (p *FlitPool) FreeSlots() int { return len(p.free) }
