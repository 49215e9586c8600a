package bless

import (
	"sort"
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/rng"
)

// TestSortingNetworkMatchesOlderHot checks the fixed-width collection,
// the packed age key and the sorting network against a plain sort by
// noc.OlderHot. Each round fills 0-4 of the four links from a small
// pool of hot entries whose fields are drawn so that ties are common:
// equal Inject (Seq decides), equal Inject and Seq (Index decides),
// and Seq values up to the largest the NIC layout allows,
// (MaxSeqNode-1)<<SeqCounterBits | (2^SeqCounterBits - 1). The scratch
// is reused across rounds, as it is across nodes, so keys a fuller
// round left behind must not leak into an emptier one.
func TestSortingNetworkMatchesOlderHot(t *testing.T) {
	const maxSeq = uint64(noc.MaxSeqNode-1)<<noc.SeqCounterBits | (1<<noc.SeqCounterBits - 1)
	src := rng.New(11)
	var sc stepScratch
	// Slot 0 is the pool's nil handle; give it an age older than any
	// flit so that an empty link taking part in the order would show.
	hot := make([]noc.FlitHot, 5)
	hot[0] = noc.FlitHot{Inject: -1}
	pick := func(choices ...uint64) uint64 { return choices[src.Intn(len(choices))] }
	for round := 0; round < 200_000; round++ {
		var head [maxDirs]noc.Handle
		var want []noc.Handle
		for d := 0; d < maxDirs; d++ {
			if src.Intn(5) == 0 {
				continue
			}
			h := noc.Handle(d + 1)
			hot[h] = noc.FlitHot{
				Inject: int64(pick(0, 1, 2, uint64(src.Intn(1<<40)))),
				Seq:    pick(1, 2, maxSeq, maxSeq-1, uint64(src.Intn(noc.MaxSeqNode))<<noc.SeqCounterBits|uint64(src.Intn(3)+1)),
				Index:  uint8(pick(0, 1, 254, uint64(src.Intn(256)))),
				Dst:    int32(src.Intn(64)),
			}
			if src.Bool(0.5) && len(want) > 0 {
				// Force a tie with an earlier arrival on Inject, and
				// sometimes on Seq too, so that Seq or Index decides.
				prev := &hot[want[src.Intn(len(want))]]
				hot[h].Inject = prev.Inject
				if src.Bool(0.5) {
					hot[h].Seq = prev.Seq
					for hot[h].Index == prev.Index {
						hot[h].Index = uint8(src.Intn(256))
					}
				}
			}
			// Keys must be distinct, as the total order guarantees.
			dup := false
			for _, o := range want {
				a, b := &hot[o], &hot[h]
				dup = dup || a.Inject == b.Inject && a.Seq == b.Seq && a.Index == b.Index
			}
			if dup {
				continue
			}
			head[d] = h
			want = append(want, h)
		}
		sort.Slice(want, func(i, j int) bool { return noc.OlderHot(&hot[want[i]], &hot[want[j]]) })

		na := sc.collect(&head, hot)
		sc.sortAge()
		if na != len(want) {
			t.Fatalf("round %d: collected %d arrivals, want %d", round, na, len(want))
		}
		for k, h := range want {
			i := sc.ord[k]
			if sc.hs[i] != h || sc.dst[i] != hot[h].Dst {
				t.Fatalf("round %d: position %d holds handle %d (dst %d), want %d (dst %d); arrivals %+v",
					round, k, sc.hs[i], sc.dst[i], h, hot[h].Dst, hot[1:])
			}
		}
	}
}
