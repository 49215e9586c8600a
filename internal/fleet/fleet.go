// Package fleet turns a nocd daemon into a horizontally scalable
// service: a batch sweep API that expands parameter grids into
// individually cached jobs, and a coordinator whose peers pull the
// daemon's cache misses from one queue into bounded in-flight windows,
// with duplicate steals of stalled jobs, retry-on-peer-death, and a
// hand-back to the daemon's own executor when every peer is down.
//
// The layer adds no new correctness machinery — it leans entirely on
// the determinism contract underneath. runner.CacheKey is
// location-independent (it covers the canonicalized configuration and
// cycle budget, never the executing process), so a result computed on
// any peer is byte-identical to one computed locally. The coordinator
// only moves runs and results: the daemon under it reads and writes
// the result cache, and verifies every result a peer returns against
// its counters hash before filing it. That is what makes the fleet's
// hard guarantee cheap to state: a sweep executed by N peers — under
// peer death, duplicate steals and retries — produces exactly the
// counters hashes of the same plan run locally at -parallel 1.
//
// Like the serve layer it extends, fleet is sanctioned ground for
// wall-clock reads (dispatch latency, backoff, probes) and goroutines
// (dispatch workers, the prober): all of it sits strictly above the
// runner and none of it can reach a simulation result.
package fleet

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nocsim/internal/serve"
)

// Config assembles the fleet layer over a daemon.
type Config struct {
	// Peers are the base URLs of peer daemons ("http://host:port") the
	// coordinator fans jobs out to. Empty means no coordinator: the
	// sweep API still works, executing every job locally.
	Peers []string
	// Window bounds the jobs in flight per peer. A peer starts each
	// dispatched job on arrival and simulates it once it has a free run
	// slot, so at most this many of the coordinator's jobs run on the
	// peer at once, fewer when the peer has fewer slots. 0 means 2.
	Window int
	// ProbeInterval is the health-probe period for dead peers (and the
	// steal-scan heartbeat). 0 means 2s.
	ProbeInterval time.Duration
	// StealAfter is how long a job may sit in flight on one peer before
	// an idle worker duplicates it onto another (the cache key dedups
	// the results). 0 means 30s; negative disables duplicate steals.
	StealAfter time.Duration
	// Log receives operational lines; nil discards them.
	Log io.Writer
}

// Fleet is the enabled layer: the sweep API and, with peers, the
// coordinator.
type Fleet struct {
	co *coordinator
	sw *sweeps
}

// Enable installs the fleet layer on a daemon: the sweep routes always,
// and with peers configured also the coordinator (job delegation and
// fleet metrics). Call after serve.New and before the daemon starts
// serving traffic.
func Enable(s *serve.Server, cfg Config) (*Fleet, error) {
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.StealAfter == 0 {
		cfg.StealAfter = 30 * time.Second
	}
	for _, p := range cfg.Peers {
		if strings.TrimSpace(p) == "" {
			return nil, fmt.Errorf("fleet: empty peer address")
		}
	}

	f := &Fleet{sw: newSweeps(s)}
	s.Route("POST /v1/sweeps", f.sw.handleSubmit)
	s.Route("GET /v1/sweeps/{id}", f.sw.handleGet)
	if len(cfg.Peers) > 0 {
		f.co = newCoordinator(cfg)
		s.SetDelegate(f.co.Execute)
		s.SetExtraMetrics(f.co.WriteMetrics)
		f.co.start()
	}
	return f, nil
}

// Close stops the coordinator's workers and prober. Jobs already
// delegated finish first; call after the daemon has drained.
func (f *Fleet) Close() {
	if f.co != nil {
		f.co.close()
	}
}
