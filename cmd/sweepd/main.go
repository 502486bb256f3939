// Command sweepd is the networked sweep daemon: it accepts declarative
// sweep jobs over HTTP, queues them through a bounded admission queue,
// runs them across a shared worker budget, and checkpoints every completed
// cell so a killed daemon restarts with all of its work intact.
//
// Durability lives under -data: the job manifest, the shared cell cache,
// and one journal + result file per job. SIGKILL the daemon at any moment,
// start it again with the same -data, and every queued or running job
// resumes to the byte-identical result an uninterrupted run would have
// produced.
//
// Usage:
//
//	sweepd -addr :8900 -data /var/lib/sweepd
//	sweepd -addr 127.0.0.1:0 -data ./sweepd-data -max-jobs 2 -workers 4
//	sweepd -addr :8900 -data ./coord -peers http://node1:8900,http://node2:8900
//
// With -peers, the daemon becomes a fabric coordinator: every accepted job
// is decomposed into shards dispatched across the peer fleet (leases,
// work-stealing, and local fallback when every peer is down — see
// DESIGN.md §15), while the API surface stays identical.
//
// Fleet-population jobs need no special handling here: internal/fleet
// compiles a device population into an ordinary SweepSpec, so its cells
// pass through admission, sharding, caching, and resume exactly like any
// other job (`experiments -only fleet -peers ...` targets daemons like
// this one; see DESIGN.md §16).
//
// Submit work with curl (see the README quickstart) or programmatically
// via service.Client, which the fabric behind `experiments -peers` uses
// to reach each daemon. SIGTERM drains:
// admission stops, running jobs finish (up to -drain-timeout, then they
// are checkpoint-cancelled), queued jobs stay durably queued for the next
// start.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clocksched"
	"clocksched/internal/fabric"
	"clocksched/internal/service"
	"clocksched/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", ":8900", "HTTP listen address (host:port; :0 for an ephemeral port)")
		dataDir = flag.String("data", "sweepd-data",
			"durable state directory: job manifest, cell cache, per-job journals and results")
		maxQueue = flag.Int("max-queue", 16, "admission queue bound; a full queue answers 429 + Retry-After")
		maxJobs  = flag.Int("max-jobs", 2, "jobs running concurrently; the worker budget is split between them")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "total simulation workers shared across active jobs")
		retry    = flag.Duration("retry-after", 2*time.Second, "backoff hint attached to 429 responses")
		drain    = flag.Duration("drain-timeout", 30*time.Second,
			"how long SIGTERM waits for running jobs before checkpoint-cancelling them")
		tokens = flag.String("tokens", "",
			"token file enabling bearer auth and per-client quotas (name token [max_queued=N] [max_cells=N] per line)")
		retain = flag.Int("retain-results", 0,
			"terminal jobs kept by the retention reaper; 0 keeps everything")
		maxBytes = flag.Int64("max-data-bytes", 0,
			"jobs/ footprint the reaper trims terminal jobs down to; 0 is unlimited")
		gcEvery = flag.Duration("gc-interval", time.Minute, "retention reaper cadence")
		peers   = flag.String("peers", "",
			"comma-separated base URLs of peer sweepd daemons; jobs are sharded across them through the fabric coordinator (must not include this daemon)")
		peerToken = flag.String("peer-token", "", "bearer token sent to every -peers daemon")
	)
	flag.Parse()
	os.Exit(run(config{
		addr: *addr, dataDir: *dataDir, maxQueue: *maxQueue, maxJobs: *maxJobs,
		workers: *workers, retry: *retry, drain: *drain, tokens: *tokens,
		retain: *retain, maxBytes: *maxBytes, gcEvery: *gcEvery,
		peers: splitPeers(*peers), peerToken: *peerToken,
	}))
}

type config struct {
	addr, dataDir, tokens              string
	maxQueue, maxJobs, workers, retain int
	maxBytes                           int64
	retry, drain, gcEvery              time.Duration
	peers                              []string
	peerToken                          string
}

// splitPeers parses the comma-separated peer list, dropping empties.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(c config) int {
	var auth *service.AuthTable
	if c.tokens != "" {
		var err error
		if auth, err = service.LoadTokenFile(c.tokens); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			return 1
		}
		fmt.Printf("sweepd: auth enabled, %d client tokens\n", auth.Len())
	}
	// With -peers, every accepted job runs through the fabric coordinator:
	// sharded across the fleet with leased re-dispatch, work-stealing, and
	// local fallback, its per-peer counters exported on /metrics.
	var executor func(ctx context.Context, job service.ExecJob) (*clocksched.SweepResult, error)
	var metrics []telemetry.Scoped
	if len(c.peers) > 0 {
		fabReg := telemetry.New()
		metrics = append(metrics, telemetry.Scoped{Reg: fabReg})
		executor = func(ctx context.Context, job service.ExecJob) (*clocksched.SweepResult, error) {
			co, err := fabric.New(fabric.Config{
				Peers:        c.peers,
				Token:        c.peerToken,
				Dir:          filepath.Join(job.Dir, "fabric"),
				Cache:        job.Config.Cache,
				LocalWorkers: job.Config.Workers,
				Progress:     job.Config.Progress,
				Telemetry:    fabReg,
			})
			if err != nil {
				return nil, err
			}
			return co.Run(ctx, job.Spec)
		}
		fmt.Printf("sweepd: fabric coordinator enabled across %d peer(s)\n", len(c.peers))
	}
	svc, err := service.New(service.Config{
		DataDir:       c.dataDir,
		MaxQueue:      c.maxQueue,
		MaxActiveJobs: c.maxJobs,
		Workers:       c.workers,
		RetryAfter:    c.retry,
		Auth:          auth,
		RetainResults: c.retain,
		MaxDataBytes:  c.maxBytes,
		GCInterval:    c.gcEvery,
		Executor:      executor,
		Metrics:       metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}
	// The bound address goes to stdout so scripts (and the crash tests)
	// can discover an ephemeral port.
	fmt.Printf("sweepd: listening on %s (sim %s, data %s)\n", ln.Addr(), clocksched.SimVersion(), c.dataDir)

	httpSrv := &http.Server{Handler: svc}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sweepd: %v: draining (timeout %v)\n", sig, c.drain)
		ctx, cancel := context.WithTimeout(context.Background(), c.drain)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd: drain:", err)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		httpSrv.Shutdown(sctx)
		fmt.Fprintln(os.Stderr, "sweepd: drained; queued jobs remain journaled for the next start")
		return 0
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		svc.Close()
		return 1
	}
}
