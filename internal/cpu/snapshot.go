package cpu

import (
	"cmp"
	"slices"

	"nocsim/internal/snap"
)

// Checkpoint codec for the core model. Decode overlays a freshly
// constructed Core: id, cfg and backend come from construction;
// everything the core mutates while stepping is encoded, including the
// instruction source through its own registration.

func init() {
	snap.Cover(Core{}, snap.Coverage{
		Serialized: []string{
			"head", "count", "readyAt", "tokens",
			"pending", "hasPending", "retired", "stalled", "gen",
		},
		Waived: map[string]string{
			"id":      "construction: node id is part of the config",
			"cfg":     "construction: defaulted Config is derived from sim.Config",
			"backend": "construction: wired to the restored memory system",
		},
	})
	snap.CoverConfig(Config{})
	snap.Cover(tokenTable{}, snap.Coverage{
		Waived: map[string]string{
			"ent":  "hook: outstanding tokens in ascending order, each with its window slot",
			"used": "hook: encoded with ent as the list of outstanding tokens",
			"mask": "construction: derived from the window size",
			"n":    "derived: recounted by put while rebuilding the table",
		},
	})
	snap.Cover(tokenSlot{}, snap.Coverage{Serialized: []string{"Token", "Slot"}})
}

// tokenSlot is one outstanding miss as encoded: a list of them in
// ascending token order is byte for byte the encoding of the
// map[uint64]int the table replaced.
type tokenSlot struct {
	Token uint64
	Slot  int
}

// EncodeSnap writes the outstanding tokens in ascending order.
func (t *tokenTable) EncodeSnap(w *snap.Writer) {
	live := make([]tokenSlot, 0, t.n)
	t.each(func(token uint64, slot int) { live = append(live, tokenSlot{token, slot}) })
	slices.SortFunc(live, func(a, b tokenSlot) int { return cmp.Compare(a.Token, b.Token) })
	snap.Encode(w, &live)
}

// DecodeSnap rebuilds the table from the encoded tokens, which must
// ascend and fit the table without colliding. Core.DecodeSnap checks
// the slots against the window.
func (t *tokenTable) DecodeSnap(r *snap.Reader) {
	var live []tokenSlot
	snap.Decode(r, &live)
	if r.Err() != nil {
		return
	}
	clear(t.used)
	t.n = 0
	for i, p := range live {
		switch {
		case i > 0 && p.Token <= live[i-1].Token:
			r.Failf("core miss tokens out of order")
			return
		case p.Slot < 0 || uint64(p.Slot) > t.mask:
			r.Failf("core miss slot %d outside the token table", p.Slot)
			return
		case !t.put(p.Token, p.Slot):
			r.Failf("core miss token %#x collides with another outstanding token", p.Token)
			return
		}
	}
}

// DecodeSnap checks the window indices the walker cannot see: the ring
// head and occupancy, and the window slot every outstanding miss token
// completes, which must be an occupied entry waiting on that token
// alone.
func (c *Core) DecodeSnap(r *snap.Reader) {
	w := len(c.readyAt)
	if c.head < 0 || c.head >= w || c.count < 0 || c.count > w {
		r.Failf("core window head %d count %d, window %d", c.head, c.count, w)
	}
	seen := make([]bool, w)
	c.tokens.each(func(_ uint64, slot int) {
		switch {
		case c.younger(slot) < 0:
			r.Failf("core miss slot %d outside the %d window entries from %d", slot, c.count, c.head)
		case c.readyAt[slot] != waiting || seen[slot]:
			r.Failf("core miss slot %d is not one waiting window entry", slot)
		default:
			seen[slot] = true
		}
	})
}

// Awaiting calls fn with each outstanding miss token and the number of
// window instructions younger than the token's own, in no particular
// order, so the system can check a restored state as a whole: every
// miss the core issued after a token came from one of those younger
// instructions, as an instruction waiting on a miss never retires.
func (c *Core) Awaiting(fn func(token uint64, younger int)) {
	c.tokens.each(func(token uint64, slot int) { fn(token, c.younger(slot)) })
}

// Resume returns where a restored core's memory references resume, so
// the system can check its L1 against them: the address of its pending
// memory reference, if it holds one, and the number of stream blocks
// its generator has emitted, the pending one included.
func (c *Core) Resume() (pending uint64, hasPending bool, emitted int64) {
	if c.hasPending && c.pending.IsMem {
		pending, hasPending = c.pending.Addr, true
	}
	return pending, hasPending, c.gen.MissIntents()
}

// younger returns the number of occupied window entries younger than
// slot, or -1 if slot is not occupied.
func (c *Core) younger(slot int) int {
	w := len(c.readyAt)
	pos := slot - c.head
	if pos < 0 {
		pos += w
	}
	if slot >= w || pos >= c.count {
		return -1
	}
	return c.count - 1 - pos
}
