// Command nocd is the simulation-as-a-service daemon: it accepts run
// plans over HTTP (POST /v1/runs) and parameter grids (POST
// /v1/sweeps), starts each job as it arrives, runs at most -parallel
// simulations at once through the runner, and answers repeat
// submissions from a content-addressed result cache. With -peers it
// becomes a fleet coordinator that hands its cache misses to peer
// daemons through one pull queue, with duplicate steals of stalled
// jobs and retry-on-peer-death. See internal/serve for the API and the
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
	queueCap := flag.Int("queue", 64, "jobs accepted and not yet finished, client and dispatched alike (the next submission gets 429)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job simulation budget, 0 disables")
	sampleInterval := flag.Int64("sample-interval", 1000, "interval-sampler period for streamed run events")
	snapDir := flag.String("snapdir", "", "checkpoint store directory (enables warm starts and run extension)")
	snapCap := flag.Int64("snapcap", 0, "checkpoint store byte cap, oldest evicted first (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "run slots: simulations the daemon runs at once over all its jobs (0 = GOMAXPROCS); cache hits and delegated runs need none")
	peers := flag.String("peers", "", "comma-separated peer daemon URLs; enables coordinator mode")
	peerWindow := flag.Int("peer-window", 2, "jobs in flight per peer; a peer simulates each as soon as it has a free run slot, so more than the peer's -parallel only wait there")
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

	srv, err := serve.New(serve.Config{
		Scale:          sc,
		CacheDir:       *cacheDir,
		QueueCap:       *queueCap,
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
