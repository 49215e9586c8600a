package main

import (
	"fmt"

	"nocsim/internal/obs"
	"nocsim/internal/rng"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
)

// mesh64_H_central: every op builds a fresh 8x8 BLESS simulation of an
// H-category workload under the central controller, from a workload
// seed derived from the run seed and the op index, and runs it for a
// fixed budget at Workers=1.
const (
	meshCycles = 10_000
	meshEpoch  = 1_000
)

type mesh struct {
	base
	seed uint64
	// hashes is the counters hash of every timed op, by op index.
	hashes map[int]string
	// instNS is each timed instance's host ns per node-cycle.
	instNS          []float64
	throttledEpochs int64
}

func newMesh(seed uint64, _ string) bench {
	return &mesh{base: newBase(), seed: seed, hashes: map[int]string{}}
}

// meshSpec declares op i's simulation.
func (m *mesh) spec(i int) (sim.Config, int64, error) {
	sc := runner.DefaultScale()
	sc.Cycles, sc.Epoch, sc.Seed = meshCycles, meshEpoch, m.seed
	rs := runner.RunSpec{
		Label: fmt.Sprintf("mesh/%d", i), Preset: "controlled", Workload: "H",
		Width: 8, Height: 8, Seed: opSeed(m.seed, "mesh", i),
	}
	cfg, cycles, err := rs.Resolve(sc)
	cfg.Workers = 1
	return cfg, cycles, err
}

// opSeed derives op i's workload seed from the run seed; never zero,
// since a zero RunSpec seed means "inherit the scale's".
func opSeed(seed uint64, stream string, i int) uint64 {
	s := rng.New(seed).Split(stream).SplitIndex(i).Uint64()
	if s == 0 {
		s = 1
	}
	return s
}

// simulate runs op i from scratch and returns its metrics and counters
// hash, recording spans around the simulator's public calls.
func (m *mesh) simulate(i int) (sim.Metrics, string, int64, float64, error) {
	cfg, cycles, err := m.spec(i)
	if err != nil {
		return sim.Metrics{}, "", 0, 0, err
	}
	sp := m.tr.begin(i, "sim.New")
	s := sim.New(cfg)
	m.tr.end(sp)
	t := now()
	sp = m.tr.begin(i, "Sim.Run")
	s.Run(cycles)
	m.tr.end(sp)
	runS := since(t)
	met := s.Metrics()
	var throttled int64
	for _, d := range s.Decisions() {
		throttled += int64(d.ThrottledNodes)
	}
	s.Close()
	return met, countersHash(met), throttled, runS, nil
}

func (m *mesh) setup() error {
	// The warm-up op uses an index no timed op reaches.
	_, _, _, _, err := m.simulate(-1)
	return err
}

func (m *mesh) op(i int) error {
	met, hash, throttled, runS, err := m.simulate(i)
	if err != nil {
		return err
	}
	m.hashes[i] = hash
	nc := met.Cycles * int64(met.Nodes)
	m.instNS = append(m.instNS, runS*1e9/float64(nc))
	m.throttledEpochs += throttled
	m.ops++
	m.points++
	m.addMetrics(met, nc)
	if met.Cycles != meshCycles {
		return fmt.Errorf("ran %d cycles, want %d", met.Cycles, meshCycles)
	}
	if want, ok := pinned["mesh64_H_central"][pinKey{m.seed, i}]; ok && want != hash {
		return fmt.Errorf("counters hash %s, pinned %s", hash, want)
	}
	return nil
}

// verify re-simulates the first and the last timed op: a fresh instance
// of the same inputs must reproduce the counters exactly.
func (m *mesh) verify() []int {
	var bad []int
	for _, i := range []int{0, len(m.hashes) - 1} {
		want, ok := m.hashes[i]
		if !ok {
			continue
		}
		_, got, _, _, err := m.simulate(i)
		if err != nil || got != want {
			fmt.Printf("check mesh op %d: re-run hash %s, first run %s (err %v)\n", i, got, want, err)
			bad = append(bad, i)
		}
	}
	return bad
}

func (m *mesh) report(r *report, w work, traced bool) {
	r.counts["throttled_node_epochs"] = float64(m.throttledEpochs)
	r.samples["inst_ns_per_node_cycle"] = m.instNS
	if traced {
		st := m.tr.stats()
		r.layer["sim.new_ms"] = st["sim.New"].meanMS()
		r.layer["sim.run_ns_per_node_cycle"] = st["Sim.Run"].totMS * 1e6 / float64(w.nodeCycles)
		r.layer["sim.instance_spread"] = instanceSpread(m.instNS)
		r.layer["core.throttled_node_epochs"] = float64(m.throttledEpochs)
	}
}

// instanceSpread is p90/p10 of per-instance host ns per node-cycle: how
// far apart fresh instances of identical work run.
func instanceSpread(ns []float64) float64 {
	if len(ns) < 2 {
		return 1
	}
	return quantile(ns, 0.9) / quantile(ns, 0.1)
}

func (m *mesh) close() {}

// countersHash is the daemon's counters digest of a run: the fabric
// counters plus retired instructions and L1 misses.
func countersHash(m sim.Metrics) string {
	var retired int64
	for _, r := range m.Retired {
		retired += r
	}
	return obs.HashCounters(m.Net, retired, m.Misses)
}
