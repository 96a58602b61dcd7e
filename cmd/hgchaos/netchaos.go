package main

// Network chaos scenarios (DESIGN.md §16): boot real coordinator/worker
// fleets with hgserved's -net-chaos transport armed and prove that degraded
// networks cannot change a single output byte. Partitions open circuit
// breakers and reroute, slow peers demote to local computes, bit-corrupted
// RPC responses are caught by the sha256 envelope and retried without ever
// poisoning a cache, and a flapping worker walks its breaker
// closed → open → closed visibly, deterministically.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// netScenarioNames lists the network chaos scenarios run() dispatches here.
var netScenarioNames = []string{
	"net-partition", "slow-peer", "corrupt-response", "flapping-worker",
}

func runNetScenario(ctx context.Context, opt options, name, req string, baseline []byte) int {
	switch name {
	case "net-partition":
		return netPartition(ctx, opt, req, baseline)
	case "slow-peer":
		return slowPeer(ctx, opt, req, baseline)
	case "corrupt-response":
		return corruptResponse(ctx, opt, req, baseline)
	case "flapping-worker":
		return flappingWorker(ctx, opt, req, baseline)
	default:
		fmt.Fprintf(opt.out, "hgchaos: unknown net scenario %q (have %s)\n",
			name, strings.Join(netScenarioNames, ", "))
		return 2
	}
}

// portOf extracts the port from a host:port address; the ":" spec separator
// means net rules pin a port with the "PORT/" substring idiom instead of a
// literal host:port.
func portOf(addr string) string {
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[i+1:]
	}
	return addr
}

// fetchMetrics scrapes one daemon's /metrics exposition.
func fetchMetrics(ctx context.Context, addr string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
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

// clusterDoc is the subset of GET /v1/cluster the net scenarios read.
type clusterDoc struct {
	Healthy int `json:"healthy"`
	Workers []struct {
		Addr    string `json:"addr"`
		Breaker string `json:"breaker"`
	} `json:"workers"`
}

// breakerOf returns a worker's breaker state from the coordinator's view.
func breakerOf(ctx context.Context, coordAddr, workerAddr string) (string, error) {
	var doc clusterDoc
	if err := getJSON(ctx, "http://"+coordAddr+"/v1/cluster", &doc); err != nil {
		return "", err
	}
	for _, w := range doc.Workers {
		if w.Addr == workerAddr {
			return w.Breaker, nil
		}
	}
	return "", fmt.Errorf("worker %s not in cluster view", workerAddr)
}

// waitBreakerState polls the coordinator until a worker's breaker reports
// want, bounded by the harness context.
func waitBreakerState(ctx context.Context, coordAddr, workerAddr, want string) error {
	for {
		if ctx.Err() != nil {
			return fmt.Errorf("worker %s never reached breaker %q: %w", workerAddr, want, ctx.Err())
		}
		got, err := breakerOf(ctx, coordAddr, workerAddr)
		if err == nil && got == want {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// netPartition blackholes one worker's address at the coordinator: every
// dispatch and heartbeat toward it hangs until its deadline. The breaker
// must open, the job must land on the reachable worker with baseline bytes,
// and the injected blackholes must be visible in /metrics.
func netPartition(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "net-partition"
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	addrs, err := freeAddrs(2)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	var workers []*daemon
	for i, addr := range addrs {
		w, werr := startDaemon(ctx, opt, fmt.Sprintf("%s-w%d", name, i),
			[]string{"-addr", addr, "-checkpoint-dir", cpDir})
		if werr != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: worker %d: %v\n", name, i, werr)
			for _, s := range workers {
				s.stop()
			}
			return 2
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.stop()
		}
	}()

	// Partition worker 0: the "PORT/" idiom matches every URL sent to it.
	spec := fmt.Sprintf("net:%s/:p1:blackhole", portOf(addrs[0]))
	coord, err := startDaemon(ctx, opt, name+"-coord", []string{
		"-cluster-workers", strings.Join(addrs, ","),
		"-heartbeat-interval", "100ms",
		"-dispatch-deadline", "1s",
		"-checkpoint-dir", cpDir,
		"-net-chaos", spec,
		"-chaos-seed", fmt.Sprint(opt.seed),
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: coordinator: %v\n", name, err)
		return 2
	}
	defer coord.stop()

	// Heartbeats into the blackhole time out; the breaker must open.
	if err := waitBreakerState(ctx, coord.addr, addrs[0], "open"); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 1
	}
	body, _, err := submitSync(ctx, coord.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: submit across the partition: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: partitioned-cluster report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	var doc clusterDoc
	if err := getJSON(ctx, "http://"+coord.addr+"/v1/cluster", &doc); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: cluster status: %v\n", name, err)
		return 1
	}
	if doc.Healthy != 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: healthy=%d, want exactly the reachable worker\n", name, doc.Healthy)
		return 1
	}
	metrics, err := fetchMetrics(ctx, coord.addr)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: metrics: %v\n", name, err)
		return 1
	}
	if metricValue(metrics, `hgserved_net_faults_injected_total{fault="blackhole"}`) < 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: no blackhole faults counted in /metrics\n", name)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: breaker open on the partitioned worker, bytes byte-identical via the survivor\n", name)
	return 0
}

// slowPeer injects 500ms of latency into every peer cache probe on a worker
// whose -peer-timeout is 150ms: the probe must time out, the worker must
// compute locally (disposition "miss", never an error), and the bytes must
// match the baseline.
func slowPeer(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "slow-peer"
	a, err := startDaemon(ctx, opt, name+"-a", nil)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: peer A: %v\n", name, err)
		return 2
	}
	defer a.stop()
	// Prime A's cache so a timely probe WOULD hit.
	if body, _, err := submitSync(ctx, a.addr, req, opt.seed); err != nil || !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: prime peer A: err=%v identical=%v\n", name, err, bytes.Equal(body, baseline))
		return 2
	}

	b, err := startDaemon(ctx, opt, name+"-b", []string{
		"-peers", a.addr,
		"-peer-timeout", "150ms",
		"-net-chaos", "net:internal:p1:latency=500ms",
		"-chaos-seed", fmt.Sprint(opt.seed),
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: worker B: %v\n", name, err)
		return 2
	}
	defer b.stop()

	begin := time.Now()
	body, sv, err := submitSync(ctx, b.addr, req, opt.seed)
	elapsed := time.Since(begin)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: submit: %v\n", name, err)
		return 1
	}
	if sv.cache != "miss" {
		fmt.Fprintf(opt.out, "hgchaos: %s: disposition %q, want miss (slow peer must demote, not error)\n", name, sv.cache)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: locally computed report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	// The probe is bounded by -peer-timeout, not by the injected latency; a
	// generous ceiling still proves the request never waited out 500ms floors.
	if elapsed > 30*time.Second {
		fmt.Fprintf(opt.out, "hgchaos: %s: request took %v; the peer timeout did not bound the probe\n", name, elapsed)
		return 1
	}
	metrics, err := fetchMetrics(ctx, b.addr)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: metrics: %v\n", name, err)
		return 1
	}
	if metricValue(metrics, `hgserved_net_faults_injected_total{fault="latency"}`) < 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: no latency faults counted in /metrics\n", name)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: timed-out probe degraded to a local compute, bytes byte-identical\n", name)
	return 0
}

// corruptResponse flips bits in internal response bodies and proves the
// sha256 envelope catches them on both RPC paths: a corrupted dispatch
// response is retried to clean bytes and never cached, and a corrupted peer
// cache response demotes to a local compute.
func corruptResponse(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "corrupt-response"
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}

	// Dispatch path: the first /v1/partition response the coordinator reads
	// is bit-corrupted; the retry must land clean.
	worker, err := startDaemon(ctx, opt, name+"-w", []string{"-checkpoint-dir", cpDir})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: worker: %v\n", name, err)
		return 2
	}
	defer worker.stop()
	coord, err := startDaemon(ctx, opt, name+"-coord", []string{
		"-cluster-workers", worker.addr,
		"-heartbeat-interval", "100ms",
		"-dispatch-retries", "3",
		"-checkpoint-dir", cpDir,
		"-net-chaos", "net:/v1/partition:1:corrupt",
		"-chaos-seed", fmt.Sprint(opt.seed),
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: coordinator: %v\n", name, err)
		return 2
	}
	defer coord.stop()

	body, _, err := submitSync(ctx, coord.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: submit: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: post-retry report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	metrics, err := fetchMetrics(ctx, coord.addr)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: metrics: %v\n", name, err)
		return 1
	}
	if metricValue(metrics, `hgserved_integrity_failures_total{source="dispatch"}`) != 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: want exactly 1 dispatch integrity failure, metrics:\n%s\n", name, metrics)
		return 1
	}
	// The cache-poisoning probe: a refetch must be a coordinator cache hit
	// with the VERIFIED bytes — the corrupted body must not have been stored.
	body2, sv, err := submitSync(ctx, coord.addr, req, opt.seed)
	if err != nil || sv.cache != "hit" || !bytes.Equal(body2, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: refetch disposition %q identical=%v err=%v, want an unpoisoned hit\n",
			name, sv.cache, bytes.Equal(body2, baseline), err)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: corrupted dispatch retried clean; cache never poisoned\n", name)

	// Peer path: worker B reads A's cached report through a corrupting
	// transport; the envelope mismatch must demote to a local compute.
	peerB, err := startDaemon(ctx, opt, name+"-b", []string{
		"-peers", worker.addr,
		"-peer-timeout", "500ms",
		"-net-chaos", "net:internal:1:corrupt",
		"-chaos-seed", fmt.Sprint(opt.seed),
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: worker B: %v\n", name, err)
		return 2
	}
	defer peerB.stop()
	bodyB, svB, err := submitSync(ctx, peerB.addr, req, opt.seed)
	if err != nil || svB.cache != "miss" || !bytes.Equal(bodyB, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: corrupted peer probe: disposition %q identical=%v err=%v, want miss\n",
			name, svB.cache, bytes.Equal(bodyB, baseline), err)
		return 1
	}
	metricsB, err := fetchMetrics(ctx, peerB.addr)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: metrics B: %v\n", name, err)
		return 1
	}
	if metricValue(metricsB, `hgserved_integrity_failures_total{source="peer"}`) != 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: want exactly 1 peer integrity failure, metrics:\n%s\n", name, metricsB)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: corrupted peer response demoted to a byte-identical local compute\n", name)
	return 0
}

// flappingWorker refuses the worker's first 8 heartbeat probes and then lets
// them succeed: the breaker must be seen open, recover to closed, count
// exactly 8 refused faults, and dispatch the next job to the recovered
// worker.
func flappingWorker(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "flapping-worker"
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	worker, err := startDaemon(ctx, opt, name+"-w", []string{"-checkpoint-dir", cpDir})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: worker: %v\n", name, err)
		return 2
	}
	defer worker.stop()

	// Refuse heartbeat probes 1..8; probe 9 onward succeeds. The flap window
	// is a pure function of the spec, not of timing.
	var ruleParts []string
	for k := 1; k <= 8; k++ {
		ruleParts = append(ruleParts, fmt.Sprintf("net:readyz:%d:refused", k))
	}
	coord, err := startDaemon(ctx, opt, name+"-coord", []string{
		"-cluster-workers", worker.addr,
		"-heartbeat-interval", "100ms",
		"-checkpoint-dir", cpDir,
		"-net-chaos", strings.Join(ruleParts, ","),
		"-chaos-seed", fmt.Sprint(opt.seed),
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: coordinator: %v\n", name, err)
		return 2
	}
	defer coord.stop()

	// The breaker must trip open during the refused window...
	if err := waitBreakerState(ctx, coord.addr, worker.addr, "open"); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: breaker open after consecutive refused probes\n", name)
	// ...and close again once probes recover (walking through half-open).
	if err := waitBreakerState(ctx, coord.addr, worker.addr, "closed"); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 1
	}

	metrics, err := fetchMetrics(ctx, coord.addr)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: metrics: %v\n", name, err)
		return 1
	}
	if got := metricValue(metrics, `hgserved_net_faults_injected_total{fault="refused"}`); got != 8 {
		fmt.Fprintf(opt.out, "hgchaos: %s: refused faults = %d, want exactly 8\n", name, got)
		return 1
	}

	// The recovered worker takes the next job; bytes stay baseline-identical.
	body, sv, err := submitSync(ctx, coord.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: post-recovery submit: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: post-recovery report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	st, err := jobStatus(ctx, coord.addr, sv.job)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: job status: %v\n", name, err)
		return 1
	}
	if st.Worker != worker.addr {
		fmt.Fprintf(opt.out, "hgchaos: %s: post-recovery job ran on %q, want the recovered worker %s\n",
			name, st.Worker, worker.addr)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: breaker recovered closed; next dispatch routed to the worker, bytes byte-identical\n", name)
	return 0
}
