package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// backoff is the base retry delay after a peer failure, doubling per
// attempt up to maxBackoff.
const (
	backoff    = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
)

// peer is one remote daemon the coordinator dispatches to. All mutable
// state is guarded by the coordinator's mutex.
type peer struct {
	name   string
	client *serve.Client // dispatch and completion streams
	probe  *serve.Client // short-timeout health probes

	alive    bool
	inflight map[*task]time.Time // dispatched, keyed by pickup instant

	dispatched int64 // jobs sent to this peer
	stolen     int64 // in-flight tasks this peer's workers duplicated
	retried    int64 // tasks requeued after this peer failed mid-job
	dead       int64 // times this peer was marked dead
}

// task is one delegated job's cache misses moving through the fleet.
// The immutable fields are set at creation; everything mutable is
// guarded by the coordinator's mutex. settled is cancelled exactly
// once, by settle under that mutex, when the task turns terminal: the
// submitting goroutine waits on it, and every worker's completion
// stream runs under it, so a worker whose duplicate lost stops waiting
// the moment another settles the task.
type task struct {
	dj   serve.DelegatedJob
	spec runner.PlanSpec // raw-config spec of dj.Runs

	attempts  int
	notBefore time.Time         // retry backoff gate; zero means eligible
	running   int               // workers currently executing it (dup steals)
	results   []serve.RunResult // per run of dj.Runs, once settled
	errMsg    string            // the job's failure, once settled
	settled   context.Context
	settle    context.CancelFunc
}

// terminal reports whether the task has settled; callers hold the
// coordinator mutex.
func (t *task) terminal() bool { return t.settled.Err() != nil }

// coordinator owns the fleet's dispatch state: one pull queue, per-peer
// in-flight windows, the worker pool (Window workers per peer) and the
// health prober. One mutex guards everything; the condition variable
// wakes idle workers on task arrival, peer death/revival and backoff
// expiry, and peerDown wakes submitting goroutines waiting to claim
// their task for local execution.
type coordinator struct {
	cfg Config

	dispatch *serve.Histogram // dispatch round-trip latency

	mu     sync.Mutex
	cond   *sync.Cond
	peers  []*peer
	queue  []*task // waiting for a worker, in arrival order
	closed bool
	// peerDown is closed and replaced whenever a peer failure is
	// recorded: the moment a task may have become claimable locally.
	peerDown chan struct{}

	wg        sync.WaitGroup
	stopProbe chan struct{}
}

func newCoordinator(cfg Config) *coordinator {
	c := &coordinator{
		cfg:       cfg,
		dispatch:  serve.NewHistogram("nocd_peer_dispatch_seconds"),
		peerDown:  make(chan struct{}),
		stopProbe: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, addr := range cfg.Peers {
		addr = strings.TrimSpace(addr)
		c.peers = append(c.peers, &peer{
			name:     addr,
			client:   serve.NewClient(addr),
			probe:    serve.NewClient(addr).WithTimeout(probeTimeout(cfg.ProbeInterval)),
			alive:    true,
			inflight: make(map[*task]time.Time),
		})
	}
	return c
}

// probeTimeout budgets one health probe: at least a second regardless
// of the probe period, so a peer that is alive but answering slowly —
// say, on a host saturated by a local-fallback simulation — is not
// kept dead by an aggressive ProbeInterval.
func probeTimeout(interval time.Duration) time.Duration {
	if interval < time.Second {
		return time.Second
	}
	return interval
}

// start launches the dispatch workers (Window per peer) and the prober.
func (c *coordinator) start() {
	for _, p := range c.peers {
		for w := 0; w < c.cfg.Window; w++ {
			c.wg.Add(1)
			go c.worker(p)
		}
	}
	c.wg.Add(1)
	go c.prober()
}

// close stops the workers and prober and waits for them.
func (c *coordinator) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stopProbe)
	c.wg.Wait()
}

// Execute is the daemon's delegation hook: it fans the job's cache
// misses out to the fleet and blocks until a peer has answered them or
// the job has failed. When every peer is dead it claims the task back
// and returns handled=false, so the daemon simulates the runs itself.
func (c *coordinator) Execute(dj serve.DelegatedJob) ([]serve.RunResult, string, bool) {
	t, err := c.newTask(dj)
	if err != nil {
		return nil, err.Error(), true
	}
	c.mu.Lock()
	c.queue = append(c.queue, t)
	c.cond.Broadcast()
	c.mu.Unlock()

	for {
		// Take the peer-death signal before trying the claim, so a
		// death recorded after a failed claim still wakes this loop.
		c.mu.Lock()
		down := c.peerDown
		c.mu.Unlock()
		if c.claimForLocal(t) {
			c.logf("job %s: no live peers; executing %d runs locally", dj.ID, len(dj.Runs))
			return nil, "", false
		}
		select {
		case <-t.settled.Done():
			c.mu.Lock()
			defer c.mu.Unlock()
			return t.results, t.errMsg, true
		case <-down:
		}
	}
}

// newTask builds the fleet task covering the job's missed runs: the
// shipped spec carries each run as label, cycles and raw config, the
// exact shape runner.Scale.Remote ships, so the receiving daemon
// re-derives the same cache keys.
func (c *coordinator) newTask(dj serve.DelegatedJob) (*task, error) {
	spec := runner.PlanSpec{
		Scale: runner.ScaleSpec{Epoch: dj.Scale.Epoch, Seed: dj.Scale.Seed},
	}
	for _, r := range dj.Runs {
		raw, err := json.Marshal(&r.Config)
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding config of run %q: %v", r.Label, err)
		}
		spec.Runs = append(spec.Runs, runner.RunSpec{
			Label: r.Label, Cycles: r.Cycles, Config: raw,
		})
	}
	t := &task{dj: dj, spec: spec}
	t.settled, t.settle = context.WithCancel(context.Background())
	return t, nil
}

// claimForLocal atomically takes the task out of the fleet for local
// execution. The claim succeeds only when no peer is alive, no worker
// is running the task and it is not already terminal — graceful
// degradation, never a race with a dispatch. A claimed task is settled
// with no results: no worker can reach it any more.
func (c *coordinator) claimForLocal(t *task) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.terminal() || t.running > 0 {
		return false
	}
	for _, p := range c.peers {
		if p.alive {
			return false
		}
	}
	c.queue = slices.DeleteFunc(c.queue, func(x *task) bool { return x == t })
	t.settle()
	return true
}

// worker is one dispatch slot on one peer: it claims tasks — the
// queue's first eligible one, else a duplicate of a long-inflight task
// on a slower peer — and runs each against the peer to completion.
func (c *coordinator) worker(p *peer) {
	defer c.wg.Done()
	for {
		t := c.claim(p)
		if t == nil {
			return
		}
		c.runOn(p, t)
	}
}

// claim blocks until the worker's peer is alive and a task is
// available, in preference order: the first backoff-eligible task in
// the queue, then a duplicate steal of the oldest inflight task
// elsewhere that has exceeded StealAfter. Returns nil when the
// coordinator closes.
func (c *coordinator) claim(p *peer) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if p.alive {
			t := c.takeEligible()
			if t == nil {
				if t = c.stealInflight(p); t != nil {
					p.stolen++
				}
			}
			if t != nil {
				p.inflight[t] = time.Now()
				t.running++
				return t
			}
		}
		c.cond.Wait()
	}
}

// takeEligible pops the first backoff-eligible task off the queue.
func (c *coordinator) takeEligible() *task {
	now := time.Now()
	for i, t := range c.queue {
		if !t.notBefore.After(now) {
			c.queue = slices.Delete(c.queue, i, i+1)
			return t
		}
	}
	return nil
}

// stealInflight duplicates the oldest task that has been in flight on
// another peer longer than StealAfter. The duplicate dispatch is safe
// by construction: both executions resolve to the same cache keys, the
// first completion wins, and the second lands as a cache hit.
func (c *coordinator) stealInflight(p *peer) *task {
	if c.cfg.StealAfter <= 0 {
		return nil
	}
	cutoff := time.Now().Add(-c.cfg.StealAfter)
	var oldest *task
	var oldestAt time.Time
	for _, o := range c.peers {
		if o == p {
			continue
		}
		for t, at := range o.inflight {
			if at.After(cutoff) || t.terminal() {
				continue
			}
			if _, dup := p.inflight[t]; dup {
				continue
			}
			if oldest == nil || at.Before(oldestAt) {
				oldest, oldestAt = t, at
			}
		}
	}
	return oldest
}

// runOn dispatches the task to p and follows the remote job's event
// stream to a terminal state, recording the dispatch latency and trace
// spans. The stream runs under the task's settled context: when
// another worker settles the task first, the request is cancelled and
// this execution is released as a duplicate.
func (c *coordinator) runOn(p *peer, t *task) {
	start := time.Now()
	sub, err := p.client.SubmitDispatch(t.spec)
	if err != nil {
		c.peerFailed(p, t, err)
		return
	}
	c.dispatch.Observe(time.Since(start).Seconds())
	t.dj.Span("dispatch", "", start, time.Since(start))
	c.mu.Lock()
	p.dispatched++
	c.mu.Unlock()

	jr, err := p.client.Wait(t.settled, sub.ID)
	switch {
	case err != nil && t.settled.Err() == nil:
		c.peerFailed(p, t, err)
	case err != nil: // another worker settled the task first
		c.finish(p, t, nil, "")
	case jr.Status == "failed":
		c.finish(p, t, nil, fmt.Sprintf("fleet: peer %s: %s", p.name, jr.Error))
	default:
		t.dj.Span("peer_run", "", start, time.Since(start))
		c.finish(p, t, jr.Results, "")
	}
}

// finish releases t from p's window and records the peer's terminal
// answer: its results, or the job's own failure (bad spec, timeout),
// which is not a peer-death signal and is not retried. The first
// answer settles the task; a duplicate's later one is dropped.
func (c *coordinator) finish(p *peer, t *task, results []serve.RunResult, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(p.inflight, t)
	t.running--
	if !t.terminal() {
		t.results, t.errMsg = results, errMsg
		t.settle()
	}
	c.cond.Broadcast()
}

// peerFailed handles a transport failure against p while running t:
// the peer is marked dead (the prober revives it), and the task — a
// job lost with a peer is requeued, never dropped — goes back on the
// queue with capped exponential backoff. An admission
// rejection (429/503) is backpressure, not death: the task is requeued
// without marking the peer dead.
func (c *coordinator) peerFailed(p *peer, t *task, err error) {
	transient := isAdmission(err)
	c.mu.Lock()
	delete(p.inflight, t)
	t.running--
	if !transient && p.alive {
		p.alive = false
		p.dead++
	}
	if !t.terminal() {
		t.attempts++
		p.retried++
		delay := backoff << (t.attempts - 1)
		if delay > maxBackoff || delay <= 0 {
			delay = maxBackoff
		}
		t.notBefore = time.Now().Add(delay)
		c.queue = append(c.queue, t)
		time.AfterFunc(delay+time.Millisecond, c.cond.Broadcast)
	}
	c.signalPeerDown()
	c.mu.Unlock()
	if transient {
		c.logf("peer %s rejected dispatch (%v); will retry", p.name, err)
	} else {
		c.logf("peer %s marked dead: %v", p.name, err)
	}
}

// signalPeerDown wakes idle workers and every submitting goroutine
// waiting to claim its task locally; callers hold c.mu.
func (c *coordinator) signalPeerDown() {
	c.cond.Broadcast()
	close(c.peerDown)
	c.peerDown = make(chan struct{})
}

// isAdmission reports whether a dispatch error is the peer's admission
// control (queue full, draining) rather than a dead peer.
func isAdmission(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "HTTP 429") || strings.Contains(msg, "HTTP 503")
}

// prober periodically re-probes dead peers and revives responders; its
// tick also wakes workers so StealAfter scans run even when no other
// event fires.
func (c *coordinator) prober() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		var deadPeers []*peer
		for _, p := range c.peers {
			if !p.alive {
				deadPeers = append(deadPeers, p)
			}
		}
		c.mu.Unlock()
		for _, p := range deadPeers {
			if _, err := p.probe.Health(); err != nil {
				continue
			}
			c.mu.Lock()
			p.alive = true
			c.mu.Unlock()
			c.logf("peer %s revived", p.name)
		}
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// peerMetrics are the per-peer counter names, in render order.
var peerMetrics = []string{"dispatched", "stolen", "retried", "dead"}

// WriteMetrics renders the fleet section of /metrics: the live-peer
// gauge, per-peer counters in configuration order and the
// dispatch-latency histogram — fixed order, pinned by the
// format-stability test.
func (c *coordinator) WriteMetrics(w io.Writer) {
	c.mu.Lock()
	live := 0
	vals := make(map[string][]int64, len(peerMetrics))
	names := make([]string, len(c.peers))
	for i, p := range c.peers {
		if p.alive {
			live++
		}
		names[i] = p.name
		vals["dispatched"] = append(vals["dispatched"], p.dispatched)
		vals["stolen"] = append(vals["stolen"], p.stolen)
		vals["retried"] = append(vals["retried"], p.retried)
		vals["dead"] = append(vals["dead"], p.dead)
	}
	c.mu.Unlock()

	fmt.Fprintf(w, "nocd_peers_live %d\n", live)
	for _, m := range peerMetrics {
		for i, name := range names {
			fmt.Fprintf(w, "nocd_peer_%s_total{peer=%q} %d\n", m, name, vals[m][i])
		}
	}
	c.dispatch.Write(w)
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, "fleet: "+format+"\n", args...)
}
