// Command lpd serves the Loopapalooza limit study over HTTP: a long-lived
// analysis daemon with a content-addressed result cache, per-request
// resource budgets, a server-level concurrency limiter, Prometheus
// metrics, and graceful drain on SIGTERM. With -role it scales from a
// single process to a fault-tolerant coordinator + worker cluster.
//
// Usage:
//
//	lpd -addr :8080
//	lpd -role coordinator -addr :8080 -lease 10s -max-attempts 3
//	lpd -role worker -peers http://coordinator:8080 -addr :8081
//	lpd -role coordinator -addr :8080 -data-dir /var/lib/lpd
//	lpd -wal-dump /var/lib/lpd/wal
//	lpd -addr :8080 -max-concurrent 8 -cache 4096 \
//	    -max-steps 500e6 -timeout 30s -mem-limit 4e6 -shutdown-timeout 15s
//
// With -data-dir the process is durable: the coordinator journals every
// state transition to <dir>/wal (write-ahead, checksummed, fsynced at
// the ack points) and recovers jobs, queues, and leases from it after a
// crash; analyze traces persist to <dir>/traces as chunk-checksummed
// files that a scrubber re-verifies on startup and every
// -scrub-interval, quarantining corruption. -wal-dump prints a journal
// directory's snapshot and records for offline inspection, then exits.
//
// Roles:
//
//	standalone   (default) the full analysis service plus an embedded
//	             coordinator and -local-workers in-process workers, so
//	             the async job API works in one process.
//	coordinator  owns the job store, per-tenant queues, leases, and
//	             per-worker circuit breakers; serves the job API and the
//	             worker-facing lease endpoints. Runs no cells itself
//	             unless -local-workers > 0.
//	worker       claims sweep cells from each -peers coordinator,
//	             executes them on its local harness, heartbeats its
//	             leases, and commits per-cell results.
//
// Endpoints (coordinator and standalone also serve the cluster surface):
//
//	POST /v1/analyze          {"name","source","config","budgets"} → report
//	POST /v1/sweep            {"benchmarks","configs"} → per-cell outcomes
//	POST /v1/jobs             async sweep → {"job","statusUrl"}
//	GET  /v1/jobs/{id}        job status, per-cell states, partial results
//	GET  /v1/cluster/workers  fleet state incl. breaker per worker
//	POST /v1/cluster/*        claim/heartbeat/commit/release (workers)
//	GET  /healthz             liveness (200 while the process is up)
//	GET  /readyz              readiness (503 while draining or quarantined)
//	GET  /metrics             Prometheus text format
//
// Budgets passed per request are clamped to the -max-steps/-timeout/
// -mem-limit caps; requests that omit them inherit the same values as
// defaults. Error bodies carry the failure-taxonomy outcome and the lpa
// exit code the same failure would produce, plus positioned diagnostics
// for rejected programs.
//
// On SIGINT/SIGTERM, lpd flips /readyz to NOT-READY, stops accepting
// connections, and drains for up to -shutdown-timeout. Worker roles cut
// their in-flight executions short and commit the unfinished cells with a
// canceled outcome, which the coordinator requeues without charging their
// retry budgets — shutdown never loses cells.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
	"loopapalooza/internal/serve"
	"loopapalooza/internal/wal"
)

// config is the parsed flag set.
type config struct {
	addr          string
	role          string
	peers         []string
	workerID      string
	localWorkers  int
	maxConcurrent int
	cacheEntries  int
	maxSteps      int64
	memLimit      int64
	timeout       time.Duration
	shutdown      time.Duration
	parallel      int
	dataDir       string
	scrubInterval time.Duration
	walDump       string

	lease            time.Duration
	maxAttempts      int
	retryBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	poll             time.Duration
}

func main() {
	var cfg config
	var peers string
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.role, "role", "standalone", "process role: standalone, coordinator, or worker")
	flag.StringVar(&peers, "peers", "", "comma-separated coordinator base URLs (worker role)")
	flag.StringVar(&cfg.workerID, "worker-id", "", "stable worker id (worker role; default host-pid)")
	flag.IntVar(&cfg.localWorkers, "local-workers", -1, "in-process workers (-1 = 1 for standalone, 0 for coordinator)")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "simultaneous analysis runs (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.cacheEntries, "cache", 0, "result-cache capacity in entries (0 = default)")
	flag.Int64Var(&cfg.maxSteps, "max-steps", 500_000_000, "per-run dynamic instruction budget and cap (0 = interpreter default)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-run wall-clock budget and cap (0 = none)")
	flag.Int64Var(&cfg.memLimit, "mem-limit", 0, "per-run heap budget in 64-bit cells and cap (0 = interpreter default)")
	flag.DurationVar(&cfg.shutdown, "shutdown-timeout", 15*time.Second,
		"graceful-shutdown window; on expiry in-flight cells are released back to the queue as canceled")
	flag.IntVar(&cfg.parallel, "parallel", 0,
		"fan-out worker pool width per sweep (0 = share GOMAXPROCS among the runs in flight, 1 = serial; reports are bit-identical at every width)")
	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"durable state root: <dir>/wal journals the coordinator for crash recovery, <dir>/traces holds the checksummed trace store (\"\" = in-memory only)")
	flag.DurationVar(&cfg.scrubInterval, "scrub-interval", 0,
		"trace-store scrub period (0 = default, negative = startup scrub only)")
	flag.StringVar(&cfg.walDump, "wal-dump", "",
		"inspect the journal directory (e.g. <data-dir>/wal) and exit: prints the active generation, snapshot size, every record, and any torn tail")
	flag.DurationVar(&cfg.lease, "lease", cluster.DefaultLease, "cluster task lease duration")
	flag.IntVar(&cfg.maxAttempts, "max-attempts", cluster.DefaultMaxAttempts, "per-cell retry budget (executions)")
	flag.DurationVar(&cfg.retryBackoff, "retry-backoff", cluster.DefaultRetryBackoff, "base of the exponential retry backoff")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive failures that OPEN a worker's breaker")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", cluster.DefaultBreakerCooldown, "OPEN dwell before a half-open probe")
	flag.DurationVar(&cfg.poll, "poll", 100*time.Millisecond, "worker idle poll interval")
	flag.Parse()
	if peers != "" {
		for _, p := range strings.Split(peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.peers = append(cfg.peers, p)
			}
		}
	}
	os.Exit(run(cfg))
}

func run(cfg config) int {
	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if cfg.walDump != "" {
		if err := dumpWAL(os.Stdout, cfg.walDump); err != nil {
			fmt.Fprintln(os.Stderr, "lpd:", err)
			return 1
		}
		return 0
	}
	opts := cfg.serveOptions(log)
	if cfg.dataDir != "" {
		opts.TraceDir = filepath.Join(cfg.dataDir, "traces")
		opts.ScrubInterval = cfg.scrubInterval
	}

	// Role wiring: who owns a coordinator, and which Coordination surface
	// the local workers speak.
	var coord *cluster.Coordinator
	var workerSurface cluster.Coordination
	localWorkers := cfg.localWorkers
	switch cfg.role {
	case "standalone", "coordinator":
		if len(cfg.peers) > 0 {
			fmt.Fprintf(os.Stderr, "lpd: -peers is only meaningful with -role worker\n")
			return 2
		}
		copts := cluster.CoordinatorOptions{
			Lease:            cfg.lease,
			MaxAttempts:      cfg.maxAttempts,
			RetryBackoff:     cfg.retryBackoff,
			BreakerThreshold: cfg.breakerThreshold,
			BreakerCooldown:  cfg.breakerCooldown,
		}
		if cfg.dataDir != "" {
			// Durable coordinator: every transition journaled to
			// <data-dir>/wal, recovered on the next start.
			copts.DataDir = filepath.Join(cfg.dataDir, "wal")
		}
		var err error
		coord, err = cluster.OpenCoordinator(copts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpd:", err)
			return 1
		}
		defer coord.Close()
		opts.Cluster = coord
		workerSurface = coord
		if localWorkers < 0 {
			if cfg.role == "standalone" {
				localWorkers = 1
			} else {
				localWorkers = 0
			}
		}
	case "worker":
		if len(cfg.peers) == 0 {
			fmt.Fprintf(os.Stderr, "lpd: -role worker needs -peers\n")
			return 2
		}
		if localWorkers < 0 {
			localWorkers = 1
		}
	default:
		fmt.Fprintf(os.Stderr, "lpd: unknown -role %q (standalone, coordinator, worker)\n", cfg.role)
		return 2
	}

	s, err := serve.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpd:", err)
		return 1
	}

	// The worker fleet of this process: against the embedded coordinator
	// (standalone/coordinator) or against each remote peer (worker role).
	workerID := cfg.workerID
	if workerID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "lpd"
		}
		workerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var workers []*cluster.Worker
	addWorker := func(id string, surface cluster.Coordination) int {
		w, err := cfg.newWorker(id, surface, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpd:", err)
			return 1
		}
		workers = append(workers, w)
		return 0
	}
	if cfg.role == "worker" {
		for i, peer := range cfg.peers {
			id := workerID
			if len(cfg.peers) > 1 {
				id = fmt.Sprintf("%s-p%d", workerID, i)
			}
			if rc := addWorker(id, cluster.NewClient(peer, nil)); rc != 0 {
				return rc
			}
		}
	} else {
		for i := 0; i < localWorkers; i++ {
			if rc := addWorker(fmt.Sprintf("%s-w%d", workerID, i), workerSurface); rc != 0 {
				return rc
			}
		}
	}
	// A quarantined or draining worker makes the process NOT-READY.
	for _, w := range workers {
		w := w
		s.AddReadyCheck(func() error {
			if !w.Ready() {
				return fmt.Errorf("worker %s not ready (draining or breaker quarantine)", w.ID())
			}
			return nil
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workerCtx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	var wg sync.WaitGroup
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(workerCtx); err != nil && !errors.Is(err, context.Canceled) {
				log.Error("worker stopped", "worker", w.ID(), "err", err.Error())
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(cfg.addr) }()
	log.Info("lpd listening", "addr", cfg.addr, "role", cfg.role,
		"workers", len(workers), "maxSteps", cfg.maxSteps,
		"timeoutMs", cfg.timeout.Milliseconds(), "memLimit", cfg.memLimit)

	select {
	case err := <-errc:
		cancelWorkers()
		wg.Wait()
		if err != nil {
			log.Error("serve failed", "err", err.Error())
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Graceful shutdown: flip readiness, stop claiming, cut in-flight
	// executions short so their cells commit back as canceled (the
	// coordinator refunds them), then drain the HTTP side.
	log.Info("draining", "window", cfg.shutdown.String())
	for _, w := range workers {
		w.StartDrain()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdown)
	defer cancel()
	cancelWorkers()
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-drainCtx.Done():
		log.Warn("shutdown timeout: abandoning in-flight workers (leases will expire)")
	}
	err = s.Shutdown(drainCtx)
	s.Close()
	if err != nil {
		log.Error("drain incomplete", "err", err.Error())
		return 1
	}
	log.Info("lpd stopped")
	return 0
}

// serveOptions configures the HTTP service. The process budgets are both
// every run's defaults and the caps a request can ask for.
func (cfg config) serveOptions(log *slog.Logger) serve.Options {
	budgets := serve.Budgets{
		MaxSteps:     cfg.maxSteps,
		MaxHeapCells: cfg.memLimit,
		TimeoutMs:    cfg.timeout.Milliseconds(),
	}
	return serve.Options{
		DefaultBudgets: budgets,
		MaxBudgets:     budgets,
		MaxConcurrent:  cfg.maxConcurrent,
		CacheEntries:   cfg.cacheEntries,
		Parallelism:    cfg.parallel,
		Log:            log,
	}
}

// newWorker builds one job worker against surface. Each worker gets its
// own harness, with the process budgets and fan-out width, so a job cell
// reports what a /v1/sweep of the same cell reports.
func (cfg config) newWorker(id string, surface cluster.Coordination, log *slog.Logger) (*cluster.Worker, error) {
	harness := bench.NewHarnessWith(bench.HarnessOptions{
		Run: core.RunOptions{
			MaxSteps:     cfg.maxSteps,
			MaxHeapCells: cfg.memLimit,
			Timeout:      cfg.timeout,
			Parallelism:  cfg.parallel,
		},
	})
	return cluster.NewWorker(cluster.WorkerOptions{
		ID: id, Coordinator: surface, Harness: harness, Poll: cfg.poll, Log: log,
	})
}

// dumpWAL renders a journal directory for inspection without opening it
// for writing: the active generation, the snapshot size, every valid
// record payload in order, and how many torn tail bytes a recovery
// would truncate. Records are the coordinator's JSON transition log, so
// the dump is greppable as-is.
func dumpWAL(w io.Writer, dir string) error {
	info, err := wal.Inspect(dir)
	if err != nil {
		return fmt.Errorf("inspecting %s: %w", dir, err)
	}
	fmt.Fprintf(w, "wal: generation %d, snapshot %d bytes, %d records, %d torn tail bytes\n",
		info.Gen, info.SnapshotBytes, len(info.Records), info.TornBytes)
	for i, rec := range info.Records {
		fmt.Fprintf(w, "%6d %s\n", i, rec)
	}
	return nil
}
