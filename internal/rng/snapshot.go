package rng

import "nocsim/internal/snap"

// The checkpoint codec serializes a Source as its four state words
// (State/SetState); the pinned golden encoding in state_test.go guards
// the byte layout.

func init() {
	snap.Cover(Source{}, snap.Coverage{
		Serialized: []string{"s"},
	})
}

// DecodeSnap rejects the all-zero state, which a forged or corrupt
// checkpoint alone can hold: xoshiro256** never leaves it, so every
// draw would be 0 and rejection sampling (Intn) would spin forever.
func (s *Source) DecodeSnap(r *snap.Reader) {
	if s.s == [4]uint64{} {
		r.Failf("rng state is all zero")
	}
}
