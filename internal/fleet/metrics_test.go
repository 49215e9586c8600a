package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// metricName strips a Prometheus text line down to its metric name.
func metricName(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// histogramNames expands one histogram's fixed line sequence: the
// 8-step ladder plus +Inf, then sum and count.
func histogramNames(name string) []string {
	out := make([]string, 0, 11)
	for i := 0; i < 9; i++ {
		out = append(out, name+"_bucket")
	}
	return append(out, name+"_sum", name+"_count")
}

// TestMetricsFormatStability pins the fleet section of the /metrics
// page: it renders after the daemon's fixed prefix and before the
// per-endpoint HTTP lines, in fixed order — the live-peer gauge, the
// per-peer counters in configuration order and the dispatch-latency
// histogram on the shared bucket ladder.
func TestMetricsFormatStability(t *testing.T) {
	_, peerA := startPeer(t, testServeConfig(t))
	_, peerB := startPeer(t, testServeConfig(t))
	cfg := testServeConfig(t)
	cfg.SnapDir = t.TempDir()
	_, _, ts := startDaemon(t, cfg, Config{
		Peers:         []string{peerA.URL, peerB.URL},
		Window:        2,
		ProbeInterval: 50 * time.Millisecond,
		StealAfter:    -1,
	})
	if _, err := NewClient(ts.URL).Sweep(smallGrid()); err != nil {
		t.Fatal(err)
	}

	raw := scrapeMetrics(t, ts.URL)
	lines := strings.Split(strings.TrimSuffix(raw, "\n"), "\n")

	// The daemon's fixed prefix, then the fleet section, name by name.
	want := []string{
		"nocd_build_info",
		"nocd_cache_entries", "nocd_cache_bytes", "nocd_cache_hits_total",
		"nocd_cache_misses_total", "nocd_cache_writes_total", "nocd_cache_hit_ratio",
		"nocd_queue_depth", "nocd_inflight_jobs", "nocd_jobs_total",
		"nocd_snap_entries", "nocd_snap_bytes", "nocd_snap_hits_total",
		"nocd_snap_misses_total", "nocd_snap_writes_total",
		"nocd_snap_corrupt_total", "nocd_snap_evicted_total",
	}
	want = append(want, histogramNames("nocd_queue_wait_seconds")...)
	want = append(want, histogramNames("nocd_run_seconds")...)
	want = append(want, histogramNames("nocd_cache_lookup_seconds")...)
	want = append(want, histogramNames("nocd_snap_store_seconds")...)
	want = append(want,
		"nocd_jobs_outcome_total", "nocd_jobs_outcome_total",
		"nocd_runs_outcome_total", "nocd_runs_outcome_total")
	want = append(want, "nocd_peers_live")
	for _, m := range []string{"dispatched", "stolen", "retried", "dead"} {
		want = append(want, "nocd_peer_"+m+"_total", "nocd_peer_"+m+"_total")
	}
	want = append(want, histogramNames("nocd_peer_dispatch_seconds")...)
	if len(lines) < len(want) {
		t.Fatalf("metrics page has %d lines, want at least %d", len(lines), len(want))
	}
	for i, name := range want {
		if got := metricName(lines[i]); got != name {
			t.Fatalf("line %d is %q, want metric %s", i, lines[i], name)
		}
	}
	for _, l := range lines[len(want):] {
		if n := metricName(l); n != "nocd_http_requests_total" && n != "nocd_http_request_seconds_sum" {
			t.Errorf("unexpected line after the fleet section: %q", l)
		}
	}

	// Per-peer counter labels render in configuration order.
	for i, l := range lines {
		if metricName(l) == "nocd_peers_live" {
			if l != "nocd_peers_live 2" {
				t.Errorf("live gauge = %q, want 2 live peers", l)
			}
			wantA := fmt.Sprintf("nocd_peer_dispatched_total{peer=%q}", peerA.URL)
			wantB := fmt.Sprintf("nocd_peer_dispatched_total{peer=%q}", peerB.URL)
			if !strings.HasPrefix(lines[i+1], wantA) || !strings.HasPrefix(lines[i+2], wantB) {
				t.Errorf("per-peer counters out of configuration order: %q / %q", lines[i+1], lines[i+2])
			}
			break
		}
	}

	// The dispatch histogram shares the standard ladder and saw the
	// sweep's four dispatches.
	wantBuckets := []string{"0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10", "60", "+Inf"}
	first := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "nocd_peer_dispatch_seconds_bucket") {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no dispatch-latency bucket lines on the page")
	}
	for i, le := range wantBuckets {
		prefix := fmt.Sprintf("nocd_peer_dispatch_seconds_bucket{le=%q} ", le)
		if !strings.HasPrefix(lines[first+i], prefix) {
			t.Errorf("dispatch bucket %d = %q, want prefix %q", i, lines[first+i], prefix)
		}
	}
	if !strings.Contains(raw, "nocd_peer_dispatch_seconds_count 4\n") {
		t.Error("dispatch histogram did not count the sweep's 4 dispatches")
	}
}
