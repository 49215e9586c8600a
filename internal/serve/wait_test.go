package serve_test

// Completion-signalling tests: event streams wake on emit and end on
// job_done or disconnect, Client.Wait returns terminal jobs and errors
// on a cut stream, and in-process waiters wake on job changes. Every
// wait is on a signal, never on a sleep or a wall-clock bound.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nocsim/internal/serve"
)

// unstarted builds a daemon whose workers have not started, so a
// submitted job stays queued until the test calls Start.
func unstarted(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// openEvents opens a job's event stream and reads its first line, so
// the handler is known to be running when it returns.
func openEvents(t *testing.T, ctx context.Context, ts *httptest.Server, id string) (*http.Response, *bufio.Reader, string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return resp, br, first
}

// TestLiveEventStream opens a stream while the job is still queued and
// only then starts the workers: the live stream must carry every event
// the job emits, end with job_done, and match the replay of the
// finished job byte for byte.
func TestLiveEventStream(t *testing.T) {
	s, ts := unstarted(t)
	sub := submit(t, ts, planJSON, http.StatusAccepted)

	resp, br, first := openEvents(t, context.Background(), ts, sub.ID)
	defer resp.Body.Close()
	if !strings.Contains(first, `"state":"queued"`) {
		t.Fatalf("first live event %q, want the queued job event", first)
	}
	s.Start()
	t.Cleanup(s.Drain)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	live := first + string(rest)
	lines := strings.Split(strings.TrimSuffix(live, "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"type":"job_done"`) {
		t.Fatalf("live stream ends with %q, want job_done", last)
	}
	if !strings.Contains(live, `"type":"sample"`) || !strings.Contains(live, `"type":"run_done"`) {
		t.Fatalf("live stream misses sample or run_done events:\n%s", live)
	}

	replay, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	raw, err := io.ReadAll(replay.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != live {
		t.Fatalf("live stream differs from the finished job's replay:\nlive:\n%s\nreplay:\n%s", live, raw)
	}
}

// TestEventStreamDisconnect cancels a stream on a job that never runs:
// the only way the handler can return is by noticing the disconnect.
func TestEventStreamDisconnect(t *testing.T) {
	s, err := serve.New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			close(returned)
		}
	}))
	defer ts.Close()
	sub := submit(t, ts, planJSON, http.StatusAccepted)

	ctx, cancel := context.WithCancel(context.Background())
	resp, _, _ := openEvents(t, ctx, ts, sub.ID)
	defer resp.Body.Close()
	cancel()
	<-returned
}

// TestClientWaitTerminal pins Wait's answers: a done job comes back
// with its results, a failed job with its status and error — neither
// as a Go error.
func TestClientWaitTerminal(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	cl := serve.NewClient(ts.URL)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr, err := cl.Wait(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != "done" || len(jr.Results) != 1 || jr.Results[0].CountersHash == "" {
		t.Fatalf("Wait on a done job = %+v, want done with 1 hashed result", jr)
	}

	cfg := testConfig(t)
	cfg.JobTimeout = time.Nanosecond
	_, fts := startServer(t, cfg)
	fsub := submit(t, fts, planJSON, http.StatusAccepted)
	fjr, err := serve.NewClient(fts.URL).Wait(context.Background(), fsub.ID)
	if err != nil {
		t.Fatalf("Wait on a failed job errored: %v", err)
	}
	if fjr.Status != "failed" || !strings.Contains(fjr.Error, "timeout") {
		t.Fatalf("Wait on a failed job = %+v, want failed with a timeout error", fjr)
	}

	if _, err := cl.Wait(context.Background(), "no-such-job"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("Wait on an unknown job: err = %v, want an HTTP 404 error", err)
	}
}

// TestClientWaitCutStream serves a stream that ends before job_done:
// Wait must report it as an error, never as a finished job.
func TestClientWaitCutStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"type":"job","job":"job-000001","state":"running"}`)
	}))
	defer ts.Close()
	_, err := serve.NewClient(ts.URL).Wait(context.Background(), "job-000001")
	if err == nil || !strings.Contains(err.Error(), "before job_done") {
		t.Fatalf("Wait on a cut stream: err = %v, want a stream-ended error", err)
	}
}

// TestDrainWithOpenStream drains a daemon while a client follows a
// job's stream: Drain completes once the job finishes, and the stream
// ends with that job's job_done.
func TestDrainWithOpenStream(t *testing.T) {
	s, ts := unstarted(t)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	resp, br, _ := openEvents(t, context.Background(), ts, sub.ID)
	defer resp.Body.Close()
	s.Start()
	s.Drain()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"type":"job_done"`) || !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("stream open across Drain ends with %q, want a done job_done", last)
	}
}

// TestJobWatch follows a job in-process: each watch channel closes on
// the job's next change, so waiting on it reaches the terminal state
// without polling.
func TestJobWatch(t *testing.T) {
	s, ts := unstarted(t)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	jr, changed, ok := s.JobWatch(sub.ID)
	if !ok || jr.Status != "queued" {
		t.Fatalf("JobWatch before Start = %+v (ok %v), want queued", jr, ok)
	}
	s.Start()
	t.Cleanup(s.Drain)
	for jr.Status != "done" && jr.Status != "failed" {
		<-changed
		jr, changed, _ = s.JobWatch(sub.ID)
	}
	if jr.Status != "done" || len(jr.Results) != 1 {
		t.Fatalf("watched job = %+v, want done with 1 result", jr)
	}
	if _, _, ok := s.JobWatch("no-such-job"); ok {
		t.Fatal("JobWatch found an unknown job")
	}
}
