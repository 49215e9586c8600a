// Command nocd is the simulation-as-a-service daemon: it accepts run
// plans over HTTP (POST /v1/runs) and parameter grids (POST
// /v1/sweeps), executes them on a bounded job queue through the
// runner, and answers repeat submissions from a content-addressed
// result cache. With -peers it becomes a fleet coordinator whose peer
// daemons pull jobs from one queue, with duplicate steals of stalled
// jobs, retry-on-peer-death and peer-aware caching. See internal/serve for the API and the
// determinism argument that makes the cache sound, and internal/fleet
// for the distribution layer.
//
// All goroutines live inside internal/serve and internal/fleet (the
// sanctioned service layers); this entry point only parses flags,
// wires signals, and blocks.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocsim/internal/fleet"
	"nocsim/internal/runner"
	"nocsim/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "nocd-cache", "content-addressed result cache directory")
	queueCap := flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
	jobs := flag.Int("jobs", 1, "concurrent jobs (with -peers, 0 or 1 auto-sizes to the fleet)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job simulation budget, 0 disables")
	sampleInterval := flag.Int64("sample-interval", 1000, "interval-sampler period for streamed run events")
	snapDir := flag.String("snapdir", "", "checkpoint store directory (enables warm starts and run extension)")
	snapCap := flag.Int64("snapcap", 0, "checkpoint store byte cap, oldest evicted first (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
	peers := flag.String("peers", "", "comma-separated peer daemon URLs; enables coordinator mode")
	peerWindow := flag.Int("peer-window", 2, "jobs in flight per peer")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "dead-peer health probe period")
	stealAfter := flag.Duration("steal-after", 30*time.Second, "duplicate-steal a job in flight this long (<0 disables)")
	flag.Parse()

	sc := runner.DefaultScale()
	sc.Parallel = *parallel

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *jobs <= 1 {
		// A coordinator's workers mostly block on remote jobs; size the
		// queue worker pool to keep every peer window full plus slack
		// for cache-hit and local-fallback jobs.
		*jobs = len(peerList)**peerWindow + 2
	}

	srv, err := serve.New(serve.Config{
		Scale:          sc,
		CacheDir:       *cacheDir,
		QueueCap:       *queueCap,
		Jobs:           *jobs,
		JobTimeout:     *jobTimeout,
		SampleInterval: *sampleInterval,
		SnapDir:        *snapDir,
		SnapCap:        *snapCap,
		Log:            os.Stderr,
	})
	if err != nil {
		fail(err)
	}
	fl, err := fleet.Enable(srv, fleet.Config{
		Peers:         peerList,
		Window:        *peerWindow,
		ProbeInterval: *probeInterval,
		StealAfter:    *stealAfter,
		Log:           os.Stderr,
	})
	if err != nil {
		fail(err)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	err = srv.ListenAndServe(*addr, stop)
	fl.Close()
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nocd:", err)
	os.Exit(1)
}
