// Command hgserved runs the partitioning-as-a-service daemon: an HTTP
// server that accepts netlists (inline hMETIS/.netD text or named synthetic
// benchmarks) and partitions them through the fault-tolerant multistart
// harness on a bounded worker pool.
//
// Usage:
//
//	hgserved -addr :8080 -workers 2 -checkpoint-dir /var/lib/hgserved
//
// Endpoints:
//
//	POST   /v1/partition   submit a job (sync by default; "async": true for 202 + job id)
//	POST   /v1/trace       run one traced flat/clip start, returning per-pass diagnostics
//	GET    /v1/jobs        list retained jobs
//	GET    /v1/jobs/{id}   live status with best-so-far trajectory
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/stats       human-readable service summary
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness
//	GET    /readyz         readiness (503 once draining)
//
// On SIGTERM/SIGINT the daemon drains gracefully: /readyz flips to 503
// while the listener still answers, queued jobs are cancelled, running jobs
// are interrupted with their completed starts journaled to -checkpoint-dir,
// and the listener closes only after all workers are idle (bounded by
// -drain-timeout). Resubmitting an interrupted request resumes its journal.
//
// Identical requests (same instance content, config and seed) are served
// from a content-addressed result cache; concurrent identical requests
// coalesce onto a single computation. Responses are deterministic: the same
// request yields byte-identical report bodies across processes and restarts.
//
// Cluster mode (DESIGN.md §12): -cluster-workers puts this node in
// coordinator mode, routing jobs to the listed workers by consistent
// hashing on the cache key, with heartbeat failover onto the shared
// -checkpoint-dir journals and graceful degradation to local computes when
// the whole fleet is unreachable. -peers makes a worker probe sibling
// caches before computing. Reports stay byte-identical at any topology.
//
// Network chaos (DESIGN.md §16): -net-chaos arms a seed-deterministic
// fault-injecting transport on every inter-node HTTP client (dispatch RPCs,
// peer cache probes, heartbeats) — refused connections, latency, torn or
// bit-corrupted bodies, blackholes. Internal responses carry a sha256
// integrity envelope, so corrupted bytes are detected and never served from
// or written into the result cache; per-worker circuit breakers and
// -dispatch-deadline keep the cluster deterministic while degraded.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hgpart/internal/chaos"
	"hgpart/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts and smoke tests)")
		workers      = flag.Int("workers", 2, "concurrent jobs")
		startWorkers = flag.Int("start-workers", 2, "max concurrent starts within one job")
		maxRefineT   = flag.Int("max-refine-threads", 8, "cap on a request's refine_threads; results are identical at any positive value (<=0 unclamped)")
		queueCap     = flag.Int("queue-cap", 256, "queued-job bound; submissions beyond it get 429")
		historyCap   = flag.Int("job-history", 512, "terminal jobs retained for GET /v1/jobs")
		retries      = flag.Int("retries", 1, "retry a panicking start up to this many times with a reseeded generator")
		cacheEntries = flag.Int("cache-entries", 4096, "result-cache entry bound (<=0 unbounded)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result-cache byte bound (<=0 unbounded)")
		cpDir        = flag.String("checkpoint-dir", "", "journal running jobs' completed starts here; empty disables checkpointing")
		maxBody      = flag.Int64("max-body-bytes", 64<<20, "request body size bound (>= 1)")
		maxVertices  = flag.Int("max-vertices", 2_000_000, "reject instances with more vertices (<=0 disables)")
		maxPins      = flag.Int("max-pins", 20_000_000, "reject instances with more pins (<=0 disables)")
		stuckAfter   = flag.Duration("stuck-after", 2*time.Minute, "watchdog: cancel a job whose run makes no progress for this long (<=0 disables)")
		maxRequeues  = flag.Int("max-requeues", 1, "watchdog: requeue a stuck job this many times before failing it")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM graceful drain")
		logJSON      = flag.Bool("log-json", false, "emit JSON logs instead of text")
		chaosSpec    = flag.String("chaos", "", "fault-injection spec for journal I/O, e.g. \"write:.jsonl:3:torn+kill\" (testing only)")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "seed for probabilistic chaos rules")
		netChaosSpec = flag.String("net-chaos", "", "fault-injection spec for inter-node HTTP, e.g. \"net:/v1/partition:1:corrupt\" (testing only)")

		clusterWorkers  = flag.String("cluster-workers", "", "comma-separated worker addresses; non-empty runs this node as a cluster coordinator")
		peers           = flag.String("peers", "", "comma-separated sibling worker addresses whose caches are probed before computing")
		peerTimeout     = flag.Duration("peer-timeout", 250*time.Millisecond, "per-sibling cache probe bound")
		heartbeatEvery  = flag.Duration("heartbeat-interval", 500*time.Millisecond, "coordinator: worker readiness probe interval")
		dispatchRetries = flag.Int("dispatch-retries", 3, "coordinator: retry attempts per dispatch RPC before failing a job over")
		dispatchPer     = flag.Int("dispatch-per-worker", 2, "coordinator: concurrent dispatches per worker")
		dispatchDL      = flag.Duration("dispatch-deadline", 0, "coordinator: per-dispatch deadline, propagated to workers as X-Hg-Deadline (<=0 disables)")
	)
	flag.Parse()
	if *maxBody < 1 {
		// The bound guards the daemon against outside input, so it has no
		// "disabled" value: 0 would boot a daemon that rejects every body.
		fmt.Fprintln(os.Stderr, "hgserved: -max-body-bytes must be >= 1")
		os.Exit(2)
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	if *cpDir != "" {
		if err := os.MkdirAll(*cpDir, 0o755); err != nil {
			fatal(log, "create checkpoint dir", err)
		}
	}

	cfg := service.DefaultConfig()
	cfg.Workers = *workers
	cfg.StartWorkers = *startWorkers
	cfg.MaxRefineThreads = *maxRefineT
	cfg.QueueCap = *queueCap
	cfg.HistoryCap = *historyCap
	cfg.MaxRetries = *retries
	cfg.CacheEntries = *cacheEntries
	cfg.CacheBytes = *cacheBytes
	cfg.CheckpointDir = *cpDir
	cfg.MaxBodyBytes = *maxBody
	cfg.MaxVertices = *maxVertices
	cfg.MaxPins = *maxPins
	cfg.StuckAfter = *stuckAfter
	cfg.MaxRequeues = *maxRequeues
	cfg.Logger = log
	cfg.Peers = splitAddrs(*peers)
	cfg.PeerTimeout = *peerTimeout
	cfg.Cluster = service.ClusterConfig{
		Workers:           splitAddrs(*clusterWorkers),
		HeartbeatInterval: *heartbeatEvery,
		DispatchRetries:   *dispatchRetries,
		DispatchPerWorker: *dispatchPer,
		RetrySeed:         *chaosSeed,
		DispatchDeadline:  *dispatchDL,
	}
	if *chaosSpec != "" {
		rules, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(log, "parse -chaos", err)
		}
		cfg.FS = chaos.NewFaultFS(chaos.OS(), chaos.Config{Seed: *chaosSeed, Rules: rules})
		log.Warn("chaos fault injection armed on journal I/O", "spec", *chaosSpec, "seed", *chaosSeed)
	}
	if *netChaosSpec != "" {
		rules, err := chaos.ParseSpec(*netChaosSpec)
		if err != nil {
			fatal(log, "parse -net-chaos", err)
		}
		cfg.Transport = chaos.NewTransport(nil, chaos.Config{Seed: *chaosSeed, Rules: rules})
		log.Warn("chaos fault injection armed on inter-node HTTP", "spec", *netChaosSpec, "seed", *chaosSeed)
	}
	srv := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(log, "listen", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written after Listen succeeds, so a reader holding the file holds a
		// connectable address.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(log, "write addr-file", err)
		}
	}
	mode := "single-node"
	switch {
	case *clusterWorkers != "":
		mode = "coordinator"
	case *peers != "":
		mode = "worker"
	}
	log.Info("hgserved listening", "addr", bound, "workers", *workers,
		"checkpoint_dir", *cpDir, "mode", mode)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		log.Info("signal received; draining")
	case err := <-errc:
		fatal(log, "serve", err)
	}

	// Graceful sequence: readiness flips first (inside Drain), the listener
	// keeps answering /readyz and status queries while running jobs wind
	// down and checkpoint, and only then does the listener close.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Error("drain incomplete", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Error("shutdown", "err", err)
	}
	log.Info("hgserved stopped")
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// fatal logs and exits; user-facing failures never panic.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	fmt.Fprintf(os.Stderr, "hgserved: %s: %v\n", msg, err)
	os.Exit(1)
}
