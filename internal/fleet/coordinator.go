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

// task is one delegated job's uncached remainder moving through the
// fleet. The immutable fields are set at creation; everything mutable
// is guarded by the coordinator's mutex. settled is cancelled exactly
// once, by settle, when the task turns terminal (done or failed): the
// submitting goroutine waits on it, and every worker's completion
// stream runs under it, so a worker whose duplicate lost stops waiting
// the moment another settles the task.
type task struct {
	dj   serve.DelegatedJob
	miss []int           // indices into dj.Runs still to execute
	spec runner.PlanSpec // raw-config spec of exactly the missed runs

	attempts  int
	notBefore time.Time // retry backoff gate; zero means eligible
	running   int       // workers currently executing it (dup steals)
	done      bool
	failed    bool
	results   []serve.RunResult // per missed run, in miss order
	errMsg    string
	settled   context.Context
	settle    context.CancelFunc
}

// terminal reports done-or-failed; callers hold the coordinator mutex.
func (t *task) terminal() bool { return t.done || t.failed }

// coordinator owns the fleet's dispatch state: one pull queue, per-peer
// in-flight windows, the worker pool (Window workers per peer) and the
// health prober. One mutex guards everything; the condition variable
// wakes idle workers on task arrival, peer death/revival and backoff
// expiry, and peerDown wakes submitting goroutines waiting to claim
// their task for local execution.
type coordinator struct {
	srv *serve.Server
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

func newCoordinator(s *serve.Server, cfg Config) *coordinator {
	c := &coordinator{
		srv:       s,
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

// Execute is the daemon's delegation hook: it resolves the job's runs
// against the local cache, then peers' caches, and fans the remainder
// out to the fleet, blocking until every run has a result. It always
// handles the job (handled=true); local execution happens here too,
// via the claim-for-local fallback, so the serve layer never bypasses
// the coordinator's accounting.
func (c *coordinator) Execute(dj serve.DelegatedJob) ([]serve.RunResult, string, bool) {
	results := make([]serve.RunResult, len(dj.Runs))
	var miss []int
	for i, r := range dj.Runs {
		start := time.Now()
		e, err := c.srv.Cache().Get(r.Key)
		dj.Span("cache_lookup", r.Label, start, time.Since(start))
		if err != nil {
			c.logf("job %s: %v (consulting peers)", dj.ID, err)
		}
		if e == nil {
			pl := time.Now()
			e = c.Lookup(r.Key)
			dj.Span("peer_lookup", r.Label, pl, time.Since(pl))
		}
		if e == nil {
			miss = append(miss, i)
			continue
		}
		dj.CountRun("cached")
		results[i] = serve.RunResult{
			Label: r.Label, Key: r.Key, Cached: true,
			CountersHash: e.Manifest.CountersHash,
			Metrics:      e.Metrics,
		}
		dj.EmitRunDone(r.Label, r.Key, true, e.Manifest.CountersHash)
	}
	if len(miss) == 0 {
		return results, "", true
	}

	t, err := c.newTask(dj, miss)
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
			res, errMsg := c.runLocal(t)
			c.completeLocal(t, res, errMsg)
		}
		select {
		case <-t.settled.Done():
			c.mu.Lock()
			failed, errMsg, res := t.failed, t.errMsg, t.results
			c.mu.Unlock()
			if failed {
				return nil, errMsg, true
			}
			for k, i := range miss {
				results[i] = res[k]
			}
			return results, "", true
		case <-down:
		}
	}
}

// Lookup consults peers' caches for key (HEAD probe, then GET), and
// replicates the first verified hit into the local cache — exactly the
// crash-safe temp+rename write and counters-hash verification a
// locally computed entry gets. A peer that errors is simply skipped;
// the prober owns liveness, not the cache path.
func (c *coordinator) Lookup(key string) *serve.Entry {
	c.mu.Lock()
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		if p.alive {
			peers = append(peers, p)
		}
	}
	c.mu.Unlock()
	for _, p := range peers {
		ok, err := p.client.CacheContains(key)
		if err != nil || !ok {
			continue
		}
		e, err := p.client.CacheEntry(key)
		if err != nil {
			continue
		}
		if err := e.Verify(key); err != nil {
			c.logf("peer %s served a corrupt cache entry: %v", p.name, err)
			continue
		}
		if err := c.srv.Cache().Put(e); err != nil {
			c.logf("replicating %s from %s: %v", short(key), p.name, err)
		}
		return e
	}
	return nil
}

// newTask builds the fleet task covering the job's missed runs: the
// shipped spec carries each run as label, cycles and raw config, the
// exact shape runner.Scale.Remote ships, so the receiving daemon
// re-derives the same cache keys.
func (c *coordinator) newTask(dj serve.DelegatedJob, miss []int) (*task, error) {
	spec := runner.PlanSpec{
		Scale: runner.ScaleSpec{Epoch: dj.Scale.Epoch, Seed: dj.Scale.Seed},
	}
	for _, i := range miss {
		r := dj.Runs[i]
		raw, err := json.Marshal(&r.Config)
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding config of run %q: %v", r.Label, err)
		}
		spec.Runs = append(spec.Runs, runner.RunSpec{
			Label: r.Label, Cycles: r.Cycles, Config: raw,
		})
	}
	t := &task{dj: dj, miss: miss, spec: spec}
	t.settled, t.settle = context.WithCancel(context.Background())
	return t, nil
}

// claimForLocal atomically claims the task for local execution. The
// claim succeeds only when no peer is alive, no worker is running the
// task and it is not already terminal — graceful degradation, never a
// race with a dispatch.
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
	t.running++
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
// spans and replicating fresh results into the local cache. The stream
// runs under the task's settled context: when another worker settles
// the task first, the request is cancelled and this execution is
// released as a duplicate.
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
	if err != nil {
		if t.settled.Err() != nil {
			c.releaseFrom(p, t)
		} else {
			c.peerFailed(p, t, err)
		}
		return
	}
	if jr.Status == "failed" {
		c.failTask(p, t, fmt.Sprintf("fleet: peer %s: %s", p.name, jr.Error))
		return
	}
	t.dj.Span("peer_run", "", start, time.Since(start))
	if len(jr.Results) != len(t.miss) {
		c.failTask(p, t, fmt.Sprintf("fleet: peer %s returned %d results for %d runs",
			p.name, len(jr.Results), len(t.miss)))
		return
	}
	c.replicate(t, jr.Results)
	c.completeRemote(p, t, jr.Results)
}

// replicate copies each fresh result the peer computed into the local
// cache, re-verified, so subsequent sweeps hit locally. Failures
// degrade to log lines — the results themselves are already in hand.
func (c *coordinator) replicate(t *task, results []serve.RunResult) {
	start := time.Now()
	for _, r := range results {
		if c.srv.Cache().Contains(r.Key) {
			continue
		}
		if e := c.Lookup(r.Key); e == nil {
			c.logf("result %s of run %q not replicable (no peer serves it)", short(r.Key), r.Label)
		}
	}
	t.dj.Span("replicate", "", start, time.Since(start))
}

// completeRemote records a successful remote execution; the first
// completion of a task wins (duplicate steals make seconds possible).
func (c *coordinator) completeRemote(p *peer, t *task, results []serve.RunResult) {
	c.mu.Lock()
	delete(p.inflight, t)
	t.running--
	first := !t.terminal()
	if first {
		t.done = true
		t.results = results
	}
	c.mu.Unlock()
	if first {
		for _, r := range results {
			outcome := "fresh"
			if r.Cached {
				outcome = "cached"
			}
			t.dj.CountRun(outcome)
			t.dj.EmitRunDone(r.Label, r.Key, r.Cached, r.CountersHash)
		}
		t.settle()
	}
}

// releaseFrom drops a duplicate execution whose task was settled by
// another worker while this one was waiting on its peer.
func (c *coordinator) releaseFrom(p *peer, t *task) {
	c.mu.Lock()
	delete(p.inflight, t)
	t.running--
	c.cond.Broadcast()
	c.mu.Unlock()
}

// completeLocal records a local-fallback execution's outcome.
func (c *coordinator) completeLocal(t *task, results []serve.RunResult, errMsg string) {
	c.mu.Lock()
	t.running--
	first := !t.terminal()
	if first {
		if errMsg != "" {
			t.failed = true
			t.errMsg = errMsg
		} else {
			t.done = true
			t.results = results
		}
	}
	c.mu.Unlock()
	if first {
		if errMsg == "" {
			for _, r := range results {
				t.dj.CountRun("fresh")
				t.dj.EmitRunDone(r.Label, r.Key, r.Cached, r.CountersHash)
			}
		}
		t.settle()
	}
}

// failTask records a terminal job failure reported by a peer. This is
// the job's own verdict (bad spec, timeout), not a peer-death signal,
// so the task is not retried.
func (c *coordinator) failTask(p *peer, t *task, msg string) {
	c.mu.Lock()
	delete(p.inflight, t)
	t.running--
	first := !t.terminal()
	if first {
		t.failed = true
		t.errMsg = msg
	}
	c.mu.Unlock()
	if first {
		t.settle()
	}
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
