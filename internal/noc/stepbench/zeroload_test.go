package stepbench

import (
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/topology"
)

// TestZeroLoadLatency sends one packet at a time through an otherwise
// idle fabric, for every src≠dst pair, as a request (1 flit) and as a
// reply (3 flits), and requires the tail flit to be ejected exactly
// zeroLoad(src, dst) + (len − 1) cycles after the packet was queued: a
// lone packet enters the network the cycle it is queued and its flits
// follow one per cycle.
//
// Meshes (bless on a 4x4 mesh and torus; buffered on a 4x4 mesh, the
// only topology it supports): zeroLoad = HopLatency × dist(src, dst).
// A bufferless flit always finds its productive port free; a buffered
// flit is routed, wins its output VC and the switch, and departs in the
// cycle it arrives, and never waits for a credit while len ≤ BufDepth.
// Each hop therefore costs the HopLatency-cycle router and link
// pipeline, over the minimal hop count dist (on the torus each
// dimension takes the shorter way round).
//
// Rings (16 nodes in R = 4 local rings of G = 4 node stops plus a bridge
// stop, joined by a global ring of R bridge stops): every ring advances
// one stop per cycle. With s, d the source and destination stops and g,
// h their rings,
//
//	same ring:  zeroLoad = (d − s) mod (G+1)
//	otherwise:  zeroLoad = (G − s) + (h − g) mod R + 1 + (d + 1)
//
// G − s stops to the source bridge, which moves the flit onto the
// global ring in the same cycle; one global stop per cycle to the
// destination bridge's FIFO; one cycle for that bridge to put it back
// on its local ring; d + 1 stops from the bridge to the destination.
func TestZeroLoadLatency(t *testing.T) {
	const hop, G, R = 3, 4, 4
	square := func(k topology.Kind) *topology.Topology { return topology.NewSquare(k, 4) }
	meshLoad := func(top *topology.Topology) func(src, dst int) int {
		return func(src, dst int) int { return hop * top.Distance(src, dst) }
	}
	ringLoad := func(src, dst int) int {
		s, d := src%G, dst%G
		if src/G == dst/G {
			return ((d-s)%(G+1) + G + 1) % (G + 1)
		}
		return (G - s) + ((dst/G-src/G)%R+R)%R + 1 + (d + 1)
	}
	mesh, torus := square(topology.Mesh), square(topology.Torus)
	for _, c := range []struct {
		name     string
		net      noc.Network
		zeroLoad func(src, dst int) int
	}{
		{"bless/mesh", bless.New(bless.Config{Topology: mesh, HopLatency: hop}), meshLoad(mesh)},
		{"bless/torus", bless.New(bless.Config{Topology: torus, HopLatency: hop}), meshLoad(torus)},
		{"buffered/mesh", buffered.New(buffered.Config{Topology: mesh, HopLatency: hop}), meshLoad(mesh)},
		{"hierring", hierring.New(hierring.Config{Nodes: G * R, GroupSize: G}), ringLoad},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, n := c.net, c.net.Topology().Nodes()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					for _, pk := range []struct {
						kind noc.Kind
						len  int
					}{{noc.Request, 1}, {noc.Reply, 3}} {
						net.NIC(src).Send(dst, pk.kind, 0, pk.len, net.Cycle())
						for i := 0; !net.Drained(); i++ {
							if i == 100 {
								t.Fatalf("%d->%d not drained after %d cycles", src, dst, i)
							}
							net.Step()
						}
						d := net.NIC(dst).Delivered()
						want := int64(c.zeroLoad(src, dst) + pk.len - 1)
						if len(d) != 1 {
							t.Fatalf("%d->%d, %d flits: delivered %v, want one packet", src, dst, pk.len, d)
						}
						if got := d[0].Eject - d[0].Enq; got != want {
							t.Fatalf("%d->%d, %d flits: latency %d, want %d", src, dst, pk.len, got, want)
						}
					}
				}
			}
		})
	}
}
