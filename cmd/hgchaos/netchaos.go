package main

// Network chaos scenarios (DESIGN.md §16): boot real coordinator/worker
// fleets with hgserved's -net-chaos transport armed and prove that degraded
// networks cannot change a single output byte. Partitions open circuit
// breakers and reroute, slow peers demote to local computes, bit-corrupted
// RPC responses are caught by the sha256 envelope and retried without ever
// poisoning a cache, and a flapping worker walks its breaker
// closed → open → closed visibly, deterministically.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"
)

// fetchMetrics scrapes one daemon's /metrics exposition.
func fetchMetrics(ctx context.Context, addr string) (string, error) {
	b, err := get(ctx, "http://"+addr+"/metrics")
	return string(b), err
}

// metricValue reads one exposition line's integer value; 0 when the series
// is absent.
func metricValue(metrics, line string) int64 {
	for _, l := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(l, line+" ") {
			var v int64
			fmt.Sscanf(strings.TrimPrefix(l, line+" "), "%d", &v)
			return v
		}
	}
	return 0
}

// clusterDoc is the subset of GET /v1/cluster the scenarios read.
type clusterDoc struct {
	Healthy        int   `json:"healthy"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	Workers        []struct {
		Addr    string `json:"addr"`
		Breaker string `json:"breaker"`
	} `json:"workers"`
}

// waitBreakerState polls the coordinator until a worker's breaker reports
// want, bounded by the harness context.
func waitBreakerState(ctx context.Context, coordAddr, workerAddr, want string) error {
	err := poll(ctx, func() (bool, error) {
		var doc clusterDoc
		if getJSON(ctx, "http://"+coordAddr+"/v1/cluster", &doc) != nil {
			return false, nil
		}
		for _, w := range doc.Workers {
			if w.Addr == workerAddr && w.Breaker == want {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("worker %s never reached breaker %q: %w", workerAddr, want, err)
	}
	return nil
}

// netPartition blackholes one worker's address at the coordinator: every
// dispatch and heartbeat toward it hangs until its deadline. The breaker
// must open, the job must land on the reachable worker with baseline bytes,
// and the injected blackholes must be visible in /metrics.
func netPartition(ctx context.Context, e *env) error {
	c, err := startCluster(ctx, e, "", 2, nil, func(workers []string) []string {
		// Partition worker 0. The ":" spec separator rules out a literal
		// host:port, so the "PORT/" idiom matches every URL sent to it.
		_, port, _ := net.SplitHostPort(workers[0])
		return []string{
			"-dispatch-deadline", "1s",
			"-net-chaos", fmt.Sprintf("net:%s/:p1:blackhole", port),
			"-chaos-seed", fmt.Sprint(e.seed),
		}
	})
	if err != nil {
		return err
	}
	defer c.stop()

	// Heartbeats into the blackhole time out; the breaker must open.
	if err := waitBreakerState(ctx, c.coord.addr, c.addrs[0], "open"); err != nil {
		return err
	}
	if _, err := e.expect(ctx, c.coord.addr, "partitioned-cluster report", ""); err != nil {
		return err
	}
	var doc clusterDoc
	if err := getJSON(ctx, "http://"+c.coord.addr+"/v1/cluster", &doc); err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	if doc.Healthy != 1 {
		return fmt.Errorf("healthy=%d, want exactly the reachable worker", doc.Healthy)
	}
	metrics, err := fetchMetrics(ctx, c.coord.addr)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if metricValue(metrics, `hgserved_net_faults_injected_total{fault="blackhole"}`) < 1 {
		return fmt.Errorf("no blackhole faults counted in /metrics")
	}
	e.logf("breaker open on the partitioned worker, bytes byte-identical via the survivor")
	return nil
}

// slowPeer injects 500ms of latency into every peer cache probe on a worker
// whose -peer-timeout is 150ms: the probe must time out, the worker must
// compute locally (disposition "miss", never an error), and the bytes must
// match the baseline.
func slowPeer(ctx context.Context, e *env) error {
	a, err := startDaemon(ctx, e, "a")
	if err != nil {
		return fmt.Errorf("peer A: %w", err)
	}
	defer a.stop()
	// Prime A's cache so a timely probe WOULD hit.
	if _, err := e.expect(ctx, a.addr, "peer A's report", ""); err != nil {
		return envError{fmt.Errorf("prime peer A: %w", err)}
	}

	b, err := startDaemon(ctx, e, "b",
		"-peers", a.addr,
		"-peer-timeout", "150ms",
		"-net-chaos", "net:internal:p1:latency=500ms",
		"-chaos-seed", fmt.Sprint(e.seed))
	if err != nil {
		return fmt.Errorf("worker B: %w", err)
	}
	defer b.stop()

	// A slow peer must demote to a local compute, not error.
	begin := time.Now()
	if _, err := e.expect(ctx, b.addr, "locally computed report", "miss"); err != nil {
		return err
	}
	// The probe is bounded by -peer-timeout, not by the injected latency; a
	// generous ceiling still proves the request never waited out 500ms floors.
	if elapsed := time.Since(begin); elapsed > 30*time.Second {
		return fmt.Errorf("request took %v; the peer timeout did not bound the probe", elapsed)
	}
	metrics, err := fetchMetrics(ctx, b.addr)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if metricValue(metrics, `hgserved_net_faults_injected_total{fault="latency"}`) < 1 {
		return fmt.Errorf("no latency faults counted in /metrics")
	}
	e.logf("timed-out probe degraded to a local compute, bytes byte-identical")
	return nil
}

// corruptResponse flips bits in internal response bodies and proves the
// sha256 envelope catches them on both RPC paths: a corrupted dispatch
// response is retried to clean bytes and never cached, and a corrupted peer
// cache response demotes to a local compute.
func corruptResponse(ctx context.Context, e *env) error {
	// Dispatch path: the first /v1/partition response the coordinator reads
	// is bit-corrupted; the retry must land clean.
	cpDir := e.path("checkpoints")
	worker, err := startDaemon(ctx, e, "w", "-checkpoint-dir", cpDir)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	defer worker.stop()
	coord, err := startCoord(ctx, e, "coord", []string{worker.addr}, cpDir,
		"-dispatch-retries", "3",
		"-net-chaos", "net:/v1/partition:1:corrupt",
		"-chaos-seed", fmt.Sprint(e.seed))
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer coord.stop()

	if _, err := e.expect(ctx, coord.addr, "post-retry report", ""); err != nil {
		return err
	}
	metrics, err := fetchMetrics(ctx, coord.addr)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if metricValue(metrics, `hgserved_integrity_failures_total{source="dispatch"}`) != 1 {
		return fmt.Errorf("want exactly 1 dispatch integrity failure, metrics:\n%s", metrics)
	}
	// The cache-poisoning probe: a refetch must be a coordinator cache hit
	// with the VERIFIED bytes — the corrupted body must not have been stored.
	if _, err := e.expect(ctx, coord.addr, "refetched report", "hit"); err != nil {
		return fmt.Errorf("want an unpoisoned hit: %w", err)
	}
	e.logf("corrupted dispatch retried clean; cache never poisoned")

	// Peer path: worker B reads A's cached report through a corrupting
	// transport; the envelope mismatch must demote to a local compute.
	peerB, err := startDaemon(ctx, e, "b",
		"-peers", worker.addr,
		"-peer-timeout", "500ms",
		"-net-chaos", "net:internal:1:corrupt",
		"-chaos-seed", fmt.Sprint(e.seed))
	if err != nil {
		return fmt.Errorf("worker B: %w", err)
	}
	defer peerB.stop()
	if _, err := e.expect(ctx, peerB.addr, "corrupted peer probe's report", "miss"); err != nil {
		return err
	}
	metricsB, err := fetchMetrics(ctx, peerB.addr)
	if err != nil {
		return fmt.Errorf("metrics B: %w", err)
	}
	if metricValue(metricsB, `hgserved_integrity_failures_total{source="peer"}`) != 1 {
		return fmt.Errorf("want exactly 1 peer integrity failure, metrics:\n%s", metricsB)
	}
	e.logf("corrupted peer response demoted to a byte-identical local compute")
	return nil
}

// flappingWorker refuses the worker's first 8 heartbeat probes and then lets
// them succeed: the breaker must be seen open, recover to closed, count
// exactly 8 refused faults, and dispatch the next job to the recovered
// worker.
func flappingWorker(ctx context.Context, e *env) error {
	cpDir := e.path("checkpoints")
	worker, err := startDaemon(ctx, e, "w", "-checkpoint-dir", cpDir)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	defer worker.stop()

	// Refuse heartbeat probes 1..8; probe 9 onward succeeds. The flap window
	// is a pure function of the spec, not of timing.
	var rules []string
	for k := 1; k <= 8; k++ {
		rules = append(rules, fmt.Sprintf("net:readyz:%d:refused", k))
	}
	coord, err := startCoord(ctx, e, "coord", []string{worker.addr}, cpDir,
		"-net-chaos", strings.Join(rules, ","),
		"-chaos-seed", fmt.Sprint(e.seed))
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer coord.stop()

	// The breaker must trip open during the refused window...
	if err := waitBreakerState(ctx, coord.addr, worker.addr, "open"); err != nil {
		return err
	}
	e.logf("breaker open after consecutive refused probes")
	// ...and close again once probes recover (walking through half-open).
	if err := waitBreakerState(ctx, coord.addr, worker.addr, "closed"); err != nil {
		return err
	}
	metrics, err := fetchMetrics(ctx, coord.addr)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if got := metricValue(metrics, `hgserved_net_faults_injected_total{fault="refused"}`); got != 8 {
		return fmt.Errorf("refused faults = %d, want exactly 8", got)
	}

	// The recovered worker takes the next job; bytes stay baseline-identical.
	sv, err := e.expect(ctx, coord.addr, "post-recovery report", "")
	if err != nil {
		return err
	}
	st, err := jobStatus(ctx, coord.addr, sv.job)
	if err != nil {
		return fmt.Errorf("job status: %w", err)
	}
	if st.Worker != worker.addr {
		return fmt.Errorf("post-recovery job ran on %q, want the recovered worker %s", st.Worker, worker.addr)
	}
	e.logf("breaker recovered closed; next dispatch routed to the worker, bytes byte-identical")
	return nil
}
