// Package leakfix is the failing handleleak fixture: pool handles that
// die on some path — including PR 6's pre-fix pattern, an Alloc result
// dropped on an early return.
package leakfix

import "nocsim/internal/noc"

type ring struct {
	pool *noc.FlitPool
	q    []noc.Handle
	out  []noc.Handle
}

// drop leaks on the busy path: the slot is never freed or committed.
func (r *ring) drop(fl *noc.Flit, busy bool) {
	h := r.pool.Alloc(fl) // want "pool handle h may leak"
	if busy {
		return
	}
	r.out[0] = h
}

func (r *ring) discard(fl *noc.Flit) {
	r.pool.Alloc(fl) // want "result of Alloc is discarded"
}

func (r *ring) blank(fl *noc.Flit) {
	_ = r.pool.Alloc(fl) // want "result of Alloc is discarded"
}

// stall dequeues a handle but only borrows it through a read-only
// accessor; every path reaches the exit with the slot still live.
func (r *ring) stall(i int) bool {
	h := r.q[i] // want "pool handle h may leak"
	if h == 0 {
		return false
	}
	return r.pool.Hot(h).CongBit
}
