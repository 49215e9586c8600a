package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocsim/internal/fleet"
	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// nocd_sweeps: a coordinator daemon (serve + fleet with one peer) and
// its peer, both in-process on loopback with nocd's default flags plus
// checkpoint stores. One closed-loop client repeats, one fresh grid at
// a time, the request pattern of the repository's CI daemon smokes
// (.github/workflows/ci.yml): it submits the grid (a write: the peer
// simulates and checkpoints every point, the coordinator caches them),
// submits the same grid again (a read: every point must come back
// cached, as in the fleet smoke's second pass), and extends one of its
// finished runs (a short tail past the run's checkpoint, as in the nocd
// smoke's extend). Writes, reads and extends are thus a third of the ops each.
const (
	nocdCycles = 4_000
	nocdEpoch  = 1_000
	nocdExtend = 1_000
)

// opCycle is the request order for each fresh grid.
var opCycle = []byte("WRE")

// Every grid crosses the 4x4 and 8x8 meshes with the baseline and
// controlled presets, as the fleet smoke's grid crosses presets, on the
// paper's mixed HML workload; the seed picks each grid's workload seed.
// One category keeps every write, and every extend, the same kind of
// work: an extend of an L run takes half as long as one of an H run, and
// a latency median over a mix of categories jumps between them. Axes
// nest size outermost, so a grid's last point is its 8x8 controlled run,
// the one every extend resumes.
var writeAxes = []fleet.Axis{
	{Name: "size", Values: []json.RawMessage{json.RawMessage(`4`), json.RawMessage(`8`)}},
	{Name: "preset", Values: []json.RawMessage{json.RawMessage(`"baseline"`), json.RawMessage(`"controlled"`)}},
}

type nocd struct {
	base
	seed uint64
	dir  string

	coord, peer         *serve.Server
	coordFl, peerFl     *fleet.Fleet
	coordHTTP, peerHTTP *httptest.Server
	hc                  *http.Client

	last    fleet.SweepSpec   // the latest grid written; its points are all cached
	lastRun []finished        // its runs, in grid order
	first   map[string]string // run key -> counters hash first recorded
	extends []extended        // every timed extend, for sampled cold checks
	writes  []written         // every timed write, for sampled cold checks
	nonce   int

	// traced-phase records: coordinator job id -> request span
	jobSpans   map[string]int
	metrics0   map[string]float64
	peerJobs0  int64 // peer jobs before the timed phase
	firstEvent []float64
	wire       []float64
	hitMS      []float64
	extendMS   []float64
	counts     map[string]float64
}

type finished struct {
	job string
	run runner.ResolvedRun
}

type extended struct {
	op   int
	run  runner.ResolvedRun // the extended run: cycles include the tail
	hash string
}

type written struct {
	op     int
	runs   []runner.ResolvedRun
	hashes []string
}

func newNocd(seed uint64, dir string) bench {
	return &nocd{
		base: newBase(), seed: seed, dir: dir,
		first: map[string]string{}, jobSpans: map[string]int{}, counts: map[string]float64{},
	}
}

// daemonConfig is nocd's default flag set, with a checkpoint store.
func daemonConfig(dir string, jobs int) serve.Config {
	sc := runner.DefaultScale()
	sc.Workers = runtime.NumCPU()
	return serve.Config{
		Scale:          sc,
		CacheDir:       filepath.Join(dir, "cache"),
		QueueCap:       64,
		Jobs:           jobs,
		JobTimeout:     10 * time.Minute,
		SampleInterval: 1000,
		SnapDir:        filepath.Join(dir, "snap"),
	}
}

func (n *nocd) setup() error {
	var err error
	if n.peer, err = serve.New(daemonConfig(filepath.Join(n.dir, "peer"), 1)); err != nil {
		return err
	}
	if n.peerFl, err = fleet.Enable(n.peer, fleet.Config{Window: 2, ProbeInterval: 2 * time.Second, StealAfter: 30 * time.Second}); err != nil {
		return err
	}
	n.peer.Start()
	n.peerHTTP = httptest.NewServer(n.peer.Handler())

	// nocd sizes a coordinator's queue workers to peers x window + 2.
	if n.coord, err = serve.New(daemonConfig(filepath.Join(n.dir, "coord"), 1*2+2)); err != nil {
		return err
	}
	n.coordFl, err = fleet.Enable(n.coord, fleet.Config{
		Peers: []string{n.peerHTTP.URL}, Window: 2, ProbeInterval: 2 * time.Second, StealAfter: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	n.coord.Start()
	n.coordHTTP = httptest.NewServer(n.coord.Handler())
	n.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}

	// Prime the cache and warm up with one untimed round of the cycle.
	for _, step := range []func(int) error{n.write, n.read, n.extend} {
		if err := step(-1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if n.metrics0, err = n.scrape(); err != nil {
		return err
	}
	h, err := n.health(n.peerHTTP.URL)
	n.peerJobs0 = h.Jobs
	return err
}

func (n *nocd) op(i int) error {
	n.ops++
	switch opCycle[i%len(opCycle)] {
	case 'W':
		return n.write(i)
	case 'R':
		return n.read(i)
	}
	return n.extend(i)
}

// sweepOut is what the client saw of one sweep stream.
type sweepOut struct {
	points  []fleet.PointEvent
	summary fleet.SweepSummary
	firstMS float64
	bytes   int
}

// sweep submits a grid and reads its NDJSON stream to sweep_done.
func (n *nocd) sweep(i int, spec fleet.SweepSpec) (sweepOut, float64, error) {
	var out sweepOut
	body, err := json.Marshal(spec)
	if err != nil {
		return out, 0, err
	}
	sp := n.tr.begin(i, "POST /v1/sweeps")
	defer n.tr.end(sp)
	t := now()
	resp, err := n.hc.Post(n.coordHTTP.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, 0, fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		out.bytes += len(line) + 1
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return out, 0, fmt.Errorf("sweep stream: %w", err)
		}
		switch head.Type {
		case "point":
			var pt fleet.PointEvent
			if err := json.Unmarshal(line, &pt); err != nil {
				return out, 0, err
			}
			if len(out.points) == 0 {
				out.firstMS = since(t) * 1e3
			}
			out.points = append(out.points, pt)
			if pt.Job != "" && sp >= 0 {
				n.jobSpans[pt.Job] = sp
			}
		case "sweep_done":
			if err := json.Unmarshal(line, &out.summary); err != nil {
				return out, 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return out, 0, err
	}
	ms := since(t) * 1e3
	if out.summary.Type != "sweep_done" || out.summary.Status != "done" {
		return out, ms, fmt.Errorf("sweep ended %q with %d failed points", out.summary.Status, out.summary.Failed)
	}
	if sp >= 0 {
		n.firstEvent = append(n.firstEvent, out.firstMS)
	}
	return out, ms, nil
}

// read re-submits the latest grid written: every point must come back
// cached with the counters first recorded for its key.
func (n *nocd) read(i int) error {
	out, ms, err := n.sweep(i, n.last)
	if i >= 0 {
		n.counts["reads"]++
	}
	if err != nil {
		return err
	}
	for _, pt := range out.points {
		if !pt.Cached {
			return fmt.Errorf("read point %s was not cached", pt.Label)
		}
		if want := n.first[pt.Key]; pt.CountersHash != want {
			return fmt.Errorf("read point %s: counters %s, first recorded %s", pt.Label, pt.CountersHash, want)
		}
	}
	if i >= 0 {
		n.points += int64(len(out.points))
		n.hitMS = append(n.hitMS, ms)
		if n.tr.on {
			n.wire = append(n.wire, float64(out.bytes))
		}
	}
	return nil
}

// write submits a fresh small grid, sizes {4x4, 8x8} x presets
// {baseline, controlled}, with a workload seed no earlier op used, so
// the peer simulates and checkpoints every point.
func (n *nocd) write(i int) error {
	n.nonce++
	spec := fleet.SweepSpec{
		Scale: runner.ScaleSpec{Cycles: nocdCycles, Epoch: nocdEpoch, Seed: opSeed(n.seed, "nocd-write", n.nonce)},
		Base:  runner.RunSpec{Label: fmt.Sprintf("w%d", n.nonce), Workload: "HML"},
		Axes:  writeAxes,
	}
	runs, err := n.resolve(i, spec)
	if err != nil {
		return err
	}
	out, _, err := n.sweep(i, spec)
	if i >= 0 {
		n.counts["writes"]++
	}
	if err != nil {
		return err
	}
	if len(out.points) != len(runs) {
		return fmt.Errorf("write returned %d points for %d runs", len(out.points), len(runs))
	}
	w := written{op: i, runs: runs, hashes: make([]string, len(runs))}
	done := make([]finished, len(runs))
	for _, pt := range out.points {
		if pt.Index < 0 || pt.Index >= len(runs) {
			return fmt.Errorf("write point %s: index %d out of range", pt.Label, pt.Index)
		}
		rr := runs[pt.Index]
		if pt.Key != rr.Key || pt.Cached || pt.Metrics == nil {
			return fmt.Errorf("write point %s: key %s (want %s), cached %v", pt.Label, pt.Key, rr.Key, pt.Cached)
		}
		if prev, ok := n.first[pt.Key]; ok && prev != pt.CountersHash {
			return fmt.Errorf("write point %s: counters %s, earlier %s", pt.Label, pt.CountersHash, prev)
		}
		n.first[pt.Key] = pt.CountersHash
		w.hashes[pt.Index] = pt.CountersHash
		done[pt.Index] = finished{job: pt.Job, run: rr}
		if i >= 0 {
			m := *pt.Metrics
			n.addMetrics(m, m.Cycles*int64(m.Nodes))
			if want, ok := pinned[wNocd][pinKey{n.seed, i}]; ok && pt.Index == 0 && want != pt.CountersHash {
				return fmt.Errorf("write point %s: counters %s, pinned %s", pt.Label, pt.CountersHash, want)
			}
		}
	}
	n.last, n.lastRun = spec, done
	if i >= 0 {
		n.points += int64(len(out.points))
		n.writes = append(n.writes, w)
	}
	return nil
}

// resolve expands a grid into its runs exactly as the daemon does.
func (n *nocd) resolve(i int, spec fleet.SweepSpec) ([]runner.ResolvedRun, error) {
	points, err := spec.Points(4096)
	if err != nil {
		return nil, err
	}
	sp := n.tr.begin(i, "runner.CacheKey")
	_, runs, err := runner.PlanSpec{Scale: spec.Scale, Runs: points}.Resolve(n.coord.BaseScale())
	n.tr.end(sp)
	if sp >= 0 {
		n.counts["cache_keys"] += float64(len(runs))
	}
	return runs, err
}

// extend resumes the latest grid's 8x8 controlled run, the paper's
// system, for a short tail and polls the new job to completion. Every
// extend resumes a run of the same shape, so their latencies share one
// mode.
func (n *nocd) extend(i int) error {
	op := n.tr.begin(i, "extend")
	defer n.tr.end(op)
	f := n.lastRun[len(n.lastRun)-1]
	run := f.run
	run.Cycles += nocdExtend
	sp := n.tr.begin(i, "runner.CacheKey")
	key, err := runner.CacheKey(run.Config, run.Cycles)
	n.tr.end(sp)
	if err != nil {
		return err
	}
	run.Key = key

	t := now()
	var sub serve.SubmitResponse
	if err := n.call(i, "POST", "/v1/runs/"+f.job+"/extend", fmt.Sprintf(`{"cycles":%d}`, nocdExtend), &sub); err != nil {
		return err
	}
	var jr serve.JobResponse
	for {
		if err := n.call(i, "GET", "/v1/runs/"+sub.ID, "", &jr); err != nil {
			return err
		}
		if jr.Status == "done" || jr.Status == "failed" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ms := since(t) * 1e3
	if jr.Status != "done" || len(jr.Results) != 1 {
		return fmt.Errorf("extend job %s %s: %s", sub.ID, jr.Status, jr.Error)
	}
	res := jr.Results[0]
	if res.Key != run.Key || res.Metrics.Cycles != run.Cycles {
		return fmt.Errorf("extend result key %s at cycle %d, want %s at %d", res.Key, res.Metrics.Cycles, run.Key, run.Cycles)
	}
	if op >= 0 {
		n.jobSpans[sub.ID] = op
	}
	n.first[res.Key] = res.CountersHash
	if i >= 0 {
		n.counts["extends"]++
		n.extends = append(n.extends, extended{op: i, run: run, hash: res.CountersHash})
		n.extendMS = append(n.extendMS, ms)
		n.points++
		n.addMetrics(res.Metrics, nocdExtend*int64(res.Metrics.Nodes))
	}
	return nil
}

// call makes one JSON request to the coordinator.
func (n *nocd) call(i int, method, path, body string, out any) error {
	sp := n.tr.begin(i, method+" "+path[:strings.LastIndex(path, "/")])
	defer n.tr.end(sp)
	req, err := http.NewRequest(method, n.coordHTTP.URL+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// verify re-simulates, cold and in-process, every fourth write and the
// first and last extend: a served result must equal the plain local run
// of the same configuration at its full length.
func (n *nocd) verify() []int {
	var bad []int
	check := func(op int, rr runner.ResolvedRun, want string) {
		sc := n.coord.BaseScale()
		sc.Parallel, sc.Snapshots = 1, nil
		p := runner.NewPlan(sc)
		p.Add(rr.Label, rr.Config, rr.Cycles)
		if got := countersHash(p.Execute()[0]); got != want {
			fmt.Printf("check nocd op %d %s: cold %s, served %s\n", op, rr.Label, got, want)
			bad = append(bad, op)
		}
	}
	for k, w := range n.writes {
		if k%4 == 0 {
			for j, rr := range w.runs {
				check(w.op, rr, w.hashes[j])
			}
		}
	}
	if len(n.extends) > 0 {
		for _, e := range []extended{n.extends[0], n.extends[len(n.extends)-1]} {
			check(e.op, e.run, e.hash)
		}
	}
	return bad
}

func (n *nocd) report(r *report, w work, traced bool) {
	r.samples["hit_sweep_ms"] = n.hitMS
	r.samples["extend_ms"] = n.extendMS
	for k, v := range n.counts {
		r.counts[k] = v
	}
	if !traced {
		return
	}
	st := n.tr.stats()
	if c := n.counts["cache_keys"]; c > 0 {
		r.layer["runner.cache_key_us"] = st["runner.CacheKey"].totMS * 1e3 / c
	}
	r.layer["fleet.first_event_ms"] = mean(n.firstEvent)
	r.layer["wire.bytes_per_hit_sweep"] = mean(n.wire)

	// The daemons' own job traces: coordinator jobs are filed under the
	// request that caused them; peer jobs (dispatched, not client
	// requests) are read for their spans only, and only those the timed
	// phase dispatched, so their extent pairs with the coordinator's
	// peer_run spans of the same phase.
	spans := map[string][]float64{}
	var peerExtent []float64
	for job, sp := range n.jobSpans {
		evs, err := n.jobTrace(n.coordHTTP.URL, job)
		if err != nil {
			continue
		}
		n.tr.nest(sp, 2, evs)
		for _, ev := range evs {
			spans[ev.Name] = append(spans[ev.Name], float64(ev.Dur)/1e3)
		}
	}
	if h, err := n.health(n.peerHTTP.URL); err == nil {
		for j := n.peerJobs0 + 1; j <= h.Jobs; j++ {
			evs, err := n.jobTrace(n.peerHTTP.URL, fmt.Sprintf("job-%06d", j))
			if err != nil {
				continue
			}
			var lo, hi int64 = -1, 0
			for _, ev := range evs {
				spans["peer."+ev.Name] = append(spans["peer."+ev.Name], float64(ev.Dur)/1e3)
				if lo < 0 || ev.Ts < lo {
					lo = ev.Ts
				}
				hi = max(hi, ev.Ts+ev.Dur)
			}
			if lo >= 0 {
				peerExtent = append(peerExtent, float64(hi-lo)/1e3)
			}
		}
	}
	r.layer["serve.queue_wait_ms"] = mean(spans["queue"])
	r.layer["serve.cache_lookup_ms"] = mean(spans["cache_lookup"])
	r.layer["serve.simulate_ms"] = mean(spans["peer.simulate"])
	r.layer["serve.checkpoint_ms"] = mean(spans["peer.checkpoint"])
	r.layer["serve.export_ms"] = mean(spans["peer.export"])
	r.layer["fleet.dispatch_ms"] = mean(spans["dispatch"])
	r.layer["fleet.overhead_ms"] = mean(spans["peer_run"]) - mean(peerExtent)

	m1, err := n.scrape()
	if err != nil {
		return
	}
	d := func(k string) float64 { return m1[k] - n.metrics0[k] }
	r.layer["serve.runs_cached"] = d(`nocd_runs_outcome_total{outcome="cached"}`)
	r.layer["serve.runs_fresh"] = d(`nocd_runs_outcome_total{outcome="fresh"}`)
	peer := strconv.Quote(n.peerHTTP.URL)
	r.layer["fleet.dispatched"] = d("nocd_peer_dispatched_total{peer=" + peer + "}")
	r.layer["fleet.retried"] = d("nocd_peer_retried_total{peer=" + peer + "}")
	r.layer["fleet.stolen"] = d("nocd_peer_stolen_total{peer=" + peer + "}")
	if disp := r.layer["fleet.dispatched"]; disp > 0 {
		r.layer["fleet.useful_dispatch_ratio"] = d("peer:"+`nocd_runs_outcome_total{outcome="fresh"}`) / disp
	}
}

// scrape reads both daemons' /metrics pages into one map; the peer's
// lines carry a "peer:" prefix.
func (n *nocd) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for prefix, url := range map[string]string{"": n.coordHTTP.URL, "peer:": n.peerHTTP.URL} {
		resp, err := n.hc.Get(url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					out[prefix+line[:i]] = v
				}
			}
		}
		resp.Body.Close()
	}
	return out, nil
}

func (n *nocd) health(url string) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	resp, err := n.hc.Get(url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// jobTrace fetches one job's Chrome trace from a daemon.
func (n *nocd) jobTrace(url, job string) ([]obs.ChromeEvent, error) {
	resp, err := n.hc.Get(url + "/v1/jobs/" + job + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace of %s: HTTP %d", job, resp.StatusCode)
	}
	var tr struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	return tr.TraceEvents, err
}

// close drains and stops both daemons, coordinator first.
func (n *nocd) close() {
	if n.hc != nil {
		n.hc.CloseIdleConnections()
	}
	if n.coordHTTP != nil {
		n.coordHTTP.Close()
		n.coord.Drain()
		n.coordFl.Close()
	}
	if n.peerHTTP != nil {
		n.peerHTTP.Close()
		n.peer.Drain()
		n.peerFl.Close()
	}
}
