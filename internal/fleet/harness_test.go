package fleet

// In-process fleet harness: real serve daemons behind httptest
// listeners, a killable/delayable proxy standing in for a flaky peer,
// and a reference executor that computes the expected counters hashes
// locally at -parallel 1 — the ground truth every fleet test pins its
// results against.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path"
	"strconv"
	"sync"
	"testing"
	"time"

	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

// testScale is the base daemon scale for fleet tests.
func testScale() runner.Scale { return runner.DefaultScale() }

// testServeConfig is the base daemon configuration: fresh temp cache,
// room for a small sweep's jobs.
func testServeConfig(t *testing.T) serve.Config {
	t.Helper()
	return serve.Config{
		Scale:          testScale(),
		CacheDir:       t.TempDir(),
		QueueCap:       32,
		SampleInterval: 500,
	}
}

// startDaemon builds and starts one daemon with the fleet layer
// enabled, serving over httptest. Teardown drains the queue and stops
// the coordinator.
func startDaemon(t *testing.T, cfg serve.Config, fc Config) (*serve.Server, *Fleet, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Enable(s, fc)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		f.Close()
	})
	return s, f, ts
}

// startPeer is a plain worker daemon: no peers of its own.
func startPeer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, _, ts := startDaemon(t, cfg, Config{})
	return s, ts
}

// flakyProxy fronts a real peer daemon and injects the failure modes
// the coordinator must survive: dead (every request answers 502),
// die-after-dispatch (the next dispatch forwards, then the peer goes
// dark — death mid-job), a per-request delay (a slow peer for
// duplicate-steal tests), and tampering (a peer whose job results
// carry corrupt metrics).
type flakyProxy struct {
	rp *httputil.ReverseProxy

	mu               sync.Mutex
	dead             bool
	dieAfterDispatch bool
	delay            time.Duration
	tamper           bool
}

func newFlakyProxy(t *testing.T, target string) (*flakyProxy, *httptest.Server) {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyProxy{rp: httputil.NewSingleHostReverseProxy(u)}
	f.rp.ModifyResponse = f.rewrite
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts
}

func (f *flakyProxy) setDead(dead bool) {
	f.mu.Lock()
	f.dead = dead
	f.mu.Unlock()
}

func (f *flakyProxy) setDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// setTamper makes every GET /v1/runs/{id} reply count one more L1 miss
// in each run's metrics, leaving the reported counters hash and the
// manifest as the peer computed them.
func (f *flakyProxy) setTamper(on bool) {
	f.mu.Lock()
	f.tamper = on
	f.mu.Unlock()
}

// rewrite applies the tampering mode to a peer's reply.
func (f *flakyProxy) rewrite(resp *http.Response) error {
	f.mu.Lock()
	tamper := f.tamper
	f.mu.Unlock()
	req := resp.Request
	if !tamper || req.Method != http.MethodGet || path.Dir(req.URL.Path) != "/v1/runs" {
		return nil
	}
	var jr serve.JobResponse
	err := json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for i := range jr.Results {
		jr.Results[i].Metrics.Misses++
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	resp.ContentLength = int64(len(b))
	resp.Header.Set("Content-Length", strconv.Itoa(len(b)))
	return nil
}

// armDeathAfterDispatch lets exactly one more dispatch through, then
// kills the proxy: the coordinator sees the submission succeed and the
// completion stream's open fail.
func (f *flakyProxy) armDeathAfterDispatch() {
	f.mu.Lock()
	f.dieAfterDispatch = true
	f.mu.Unlock()
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	dead, delay := f.dead, f.delay
	if !dead && f.dieAfterDispatch && r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
		f.dead = true
		f.dieAfterDispatch = false
	}
	f.mu.Unlock()
	if dead {
		http.Error(w, `{"error":"peer down"}`, http.StatusBadGateway)
		return
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	f.rp.ServeHTTP(w, r)
}

// syncLog collects the coordinator's log lines; its writers are
// concurrent.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// referenceHashes executes the sweep's expanded points locally at
// -parallel 1 — the setting the fleet's byte-identity
// guarantee is stated against — and returns counters hash per label.
func referenceHashes(t *testing.T, spec SweepSpec) map[string]string {
	t.Helper()
	points, err := spec.Points(runner.MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	sc, runs, err := runner.PlanSpec{Scale: spec.Scale, Runs: points}.Resolve(testScale())
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallel = 1
	plan := runner.NewPlan(sc)
	for _, r := range runs {
		plan.Add(r.Label, r.Config, r.Cycles)
	}
	ms := plan.Execute()
	out := make(map[string]string, len(runs))
	for i, r := range runs {
		out[r.Label] = runner.CountersHash(ms[i])
	}
	return out
}
