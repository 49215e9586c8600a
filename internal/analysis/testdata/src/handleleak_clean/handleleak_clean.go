// Package leakfix is the passing handleleak fixture: every produced
// handle reaches Free, a link-plane commit, or a transfer on all paths;
// zero-handle guards discharge the empty-slot arms.
package leakfix

import "nocsim/internal/noc"

type ring struct {
	pool *noc.FlitPool
	in   []noc.Handle
	link []uint64
}

// forward consumes on every path: free, commit, or nothing to do.
func (r *ring) forward(i int) {
	h := r.in[i]
	if h == 0 {
		return
	}
	if i&1 == 0 {
		r.pool.Free(h)
		return
	}
	r.link[i] = uint64(h) | 1<<32 // folded into the committed link word
}

// eject scopes the handle to the if: the guard discharges the
// zero-handle arm and the body frees the slot.
func (r *ring) eject(fl *noc.Flit, i int) {
	if h := r.in[i]; h != 0 {
		r.pool.Get(h, fl)
		r.pool.Free(h)
	}
}

// unpack converts a link word back into a handle and transfers it out.
func unpack(w uint64) noc.Handle {
	h := noc.Handle(w)
	return h
}
