package exp

import (
	"fmt"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/runner"
	"nocsim/internal/topology"
	"nocsim/internal/traffic"
)

func init() {
	register("loadlat", loadLatency)
	register("rings", ringComparison)
}

var sweepRates = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

func sweepCycles(sc Scale) (warmup, measure int64) {
	measure = sc.Cycles / 10
	if measure < 5000 {
		measure = 5000
	}
	return measure / 2, measure
}

// sweepJob is one open-loop load-latency curve: a fabric constructor, a
// pattern, and the rate grid to sweep.
type sweepJob struct {
	name  string
	mk    func() noc.Network
	pat   func(noc.Network) traffic.Pattern
	rates []float64
}

// runSweeps evaluates every curve concurrently under the scale's worker
// pool (each traffic.Sweep is itself a serial sweep over rates) and
// appends one Series per job, in job order. The raw curves come back so
// callers can derive saturation notes.
func runSweeps(r *Result, sc Scale, jobs []sweepJob) [][]traffic.LoadPoint {
	warm, meas := sweepCycles(sc)
	curves := runner.Map(sc, len(jobs), func(i int) []traffic.LoadPoint {
		j := jobs[i]
		return traffic.Sweep(j.mk, j.pat, j.rates, 1, warm, meas, sc.Seed)
	})
	for i, pts := range curves {
		s := Series{Name: jobs[i].name}
		for _, p := range pts {
			s.Points = append(s.Points, Point{X: p.Offered, Y: p.Latency})
		}
		r.Series = append(r.Series, s)
	}
	return curves
}

func uniformPat(n noc.Network) traffic.Pattern {
	return traffic.Uniform{Nodes: n.Topology().Nodes()}
}

// loadLatency characterises the two router architectures open-loop, the
// way standalone NoC simulators (BookSim, NOCulator) do: average packet
// latency against offered load for the classic synthetic patterns. It
// is the substrate-level counterpart of Fig. 2(a): bufferless latency
// stays low until admission saturates, then queueing at injection —
// not in-network latency — explodes.
func loadLatency(sc Scale) *Result {
	top := func() *topology.Topology { return topology.NewSquare(topology.Mesh, 8) }
	r := &Result{
		ID:     "loadlat",
		Title:  "Open-loop load-latency curves (8x8, 1-flit packets)",
		XLabel: "offered load (flits/node/cycle)",
		YLabel: "avg packet latency (cycles)",
	}
	patterns := []struct {
		name string
		pat  func(noc.Network) traffic.Pattern
	}{
		{"uniform", uniformPat},
		{"transpose", func(n noc.Network) traffic.Pattern { return traffic.Transpose{Top: n.Topology()} }},
		{"hotspot", func(n noc.Network) traffic.Pattern {
			return traffic.Hotspot{Nodes: n.Topology().Nodes(), Hot: 27, Frac: 0.1}
		}},
	}
	var jobs []sweepJob
	for _, p := range patterns {
		jobs = append(jobs,
			sweepJob{"BLESS/" + p.name,
				func() noc.Network { return bless.New(bless.Config{Topology: top()}) },
				p.pat, sweepRates},
			sweepJob{"Buffered/" + p.name,
				func() noc.Network { return buffered.New(buffered.Config{Topology: top()}) },
				p.pat, sweepRates})
	}
	curves := runSweeps(r, sc, jobs)
	for i, p := range patterns {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s saturation (latency>60): BLESS %.2f vs Buffered %.2f flits/node/cycle",
			p.name,
			traffic.Saturation(curves[2*i], 60),
			traffic.Saturation(curves[2*i+1], 60)))
	}
	return r
}

// ringComparison pits the bufferless hierarchical ring interconnect
// ([21], local rings of 8 joined by a global ring) against the mesh
// fabrics open-loop. Rings are far cheaper (no routing or arbitration
// at all) but their bisection is one global ring: saturation comes much
// earlier, which is exactly the trade-off the paper's related work
// discusses.
func ringComparison(sc Scale) *Result {
	r := &Result{
		ID:     "rings",
		Title:  "Hierarchical ring [21] vs mesh fabrics (64 nodes, uniform, open loop)",
		XLabel: "offered load (flits/node/cycle)",
		YLabel: "avg packet latency (cycles)",
	}
	rates := []float64{0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.25, 0.3}
	jobs := []sweepJob{
		{"HierRing-8", func() noc.Network {
			return hierring.New(hierring.Config{Nodes: 64, GroupSize: 8})
		}, uniformPat, rates},
		{"BLESS-mesh", func() noc.Network {
			return bless.New(bless.Config{Topology: topology.NewSquare(topology.Mesh, 8)})
		}, uniformPat, rates},
		{"Buffered-mesh", func() noc.Network {
			return buffered.New(buffered.Config{Topology: topology.NewSquare(topology.Mesh, 8)})
		}, uniformPat, rates},
	}
	curves := runSweeps(r, sc, jobs)
	for i, j := range jobs {
		r.Notes = append(r.Notes, fmt.Sprintf("%s saturation: %.2f flits/node/cycle",
			j.name, traffic.Saturation(curves[i], 80)))
	}
	return r
}
