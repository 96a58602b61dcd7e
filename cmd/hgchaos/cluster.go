package main

// Cluster chaos scenarios: boot a coordinator plus a small worker fleet on
// one machine and prove that node-level faults cannot change a single
// output byte. The determinism contract under test: for a given (instance,
// config, seed) the report bytes are identical across 1-, 2- and 3-worker
// topologies, across a worker SIGKILLed mid-job and resumed on a survivor
// from the shared v2 CRC journal, across a coordinator SIGKILLed mid-route
// and restarted, and across full degradation to local compute when every
// worker address is unreachable.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// clusterScenarioNames lists the cluster scenarios run() dispatches here.
var clusterScenarioNames = []string{
	"cluster-topology", "cluster-worker-kill", "cluster-coord-kill", "cluster-degrade",
}

func runClusterScenario(ctx context.Context, opt options, name, req string, baseline []byte) int {
	switch name {
	case "cluster-topology":
		return clusterTopology(ctx, opt, req, baseline)
	case "cluster-worker-kill":
		return clusterWorkerKill(ctx, opt, req, baseline)
	case "cluster-coord-kill":
		return clusterCoordKill(ctx, opt, req, baseline)
	case "cluster-degrade":
		return clusterDegrade(ctx, opt, req, baseline)
	default:
		fmt.Fprintf(opt.out, "hgchaos: unknown cluster scenario %q (have %s)\n",
			name, strings.Join(clusterScenarioNames, ", "))
		return 2
	}
}

// cluster is a coordinator plus its worker fleet under harness control.
type cluster struct {
	workers     []*daemon
	workerAddrs []string
	coord       *daemon
}

func (c *cluster) stopAll() {
	if c.coord != nil {
		c.coord.stop()
	}
	for _, w := range c.workers {
		if w != nil {
			w.stop()
		}
	}
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; workers need their addresses known up front so each can be started
// with -peers naming its siblings.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCluster boots n workers (peered with each other, journaling to the
// shared cpDir) and a coordinator routing to all of them.
func startCluster(ctx context.Context, opt options, name string, n int, cpDir string,
	workerExtra []string) (*cluster, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	c := &cluster{workerAddrs: addrs}
	for i, addr := range addrs {
		var peers []string
		for j, p := range addrs {
			if j != i {
				peers = append(peers, p)
			}
		}
		args := []string{"-addr", addr, "-checkpoint-dir", cpDir}
		if len(peers) > 0 {
			args = append(args, "-peers", strings.Join(peers, ","))
		}
		args = append(args, workerExtra...)
		w, err := startDaemon(ctx, opt, fmt.Sprintf("%s-w%d", name, i), args)
		if err != nil {
			c.stopAll()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	coord, err := startDaemon(ctx, opt, name+"-coord", []string{
		"-cluster-workers", strings.Join(addrs, ","),
		"-heartbeat-interval", "100ms",
		"-checkpoint-dir", cpDir,
	})
	if err != nil {
		c.stopAll()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	c.coord = coord
	return c, nil
}

// clusterTopology proves placement-independence: 1-, 2- and 3-worker
// clusters all reproduce the single-node baseline byte for byte, and a
// repeated request is served from the coordinator's cache.
func clusterTopology(ctx context.Context, opt options, req string, baseline []byte) int {
	for n := 1; n <= 3; n++ {
		cpDir := filepath.Join(opt.workdir, fmt.Sprintf("cluster-topology-%d", n), "checkpoints")
		if err := os.MkdirAll(cpDir, 0o755); err != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-topology: %v\n", err)
			return 2
		}
		c, err := startCluster(ctx, opt, fmt.Sprintf("cluster-topology-%d", n), n, cpDir, nil)
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-topology: %d workers: %v\n", n, err)
			return 2
		}
		body, _, err := submitSync(ctx, c.coord.addr, req, opt.seed)
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-topology: %d workers: %v\n", n, err)
			c.stopAll()
			return 1
		}
		if !bytes.Equal(body, baseline) {
			fmt.Fprintf(opt.out, "hgchaos: cluster-topology: %d-worker report differs from baseline (%d vs %d bytes)\n",
				n, len(body), len(baseline))
			c.stopAll()
			return 1
		}
		body2, sv, err := submitSync(ctx, c.coord.addr, req, opt.seed)
		if err != nil || !bytes.Equal(body2, baseline) || sv.cache != "hit" {
			fmt.Fprintf(opt.out, "hgchaos: cluster-topology: repeat request not a byte-identical cache hit (disposition %q, err %v)\n", sv.cache, err)
			c.stopAll()
			return 1
		}
		fmt.Fprintf(opt.out, "hgchaos: cluster-topology: %d worker(s) byte-identical\n", n)
		c.stopAll()
	}
	return 0
}

// clusterWorkerKill is the core failover proof: SIGKILL the worker that is
// computing the job mid-run; the coordinator must fail the job over to the
// survivor, which resumes from the shared journal (resumed >= 1) and
// produces bytes identical to the uninterrupted single-node baseline.
func clusterWorkerKill(ctx context.Context, opt options, req string, baseline []byte) int {
	const rearms = 3
	for attempt := 0; attempt < rearms; attempt++ {
		rc, rearm := clusterWorkerKillOnce(ctx, opt, req, baseline, attempt)
		if !rearm {
			return rc
		}
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job finished before the kill landed; re-arming\n")
	}
	fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: could not catch the job mid-run after %d attempts\n", rearms)
	return 1
}

func clusterWorkerKillOnce(ctx context.Context, opt options, req string, baseline []byte, attempt int) (int, bool) {
	name := fmt.Sprintf("cluster-worker-kill-%d", attempt)
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: %v\n", err)
		return 2, false
	}
	// The latency spec stretches every journal write so the job is reliably
	// still mid-run when the kill lands (same trick as mid-drain).
	c, err := startCluster(ctx, opt, name, 2, cpDir, []string{"-chaos", "write:.jsonl:p1:latency=150ms"})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: %v\n", err)
		return 2, false
	}
	defer c.stopAll()

	cjID, err := submitAsyncID(ctx, c.coord.addr, req)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: submit: %v\n", err)
		return 2, false
	}

	// Find the worker actually executing the job, and wait until it has >= 2
	// starts done — by then >= 1 journal record is durable (records are
	// written and fsynced by the same goroutine that counts completions, so
	// completion k acknowledges record k-1).
	victim := -1
	for victim < 0 {
		if ctx.Err() != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: %v\n", ctx.Err())
			return 2, false
		}
		if st, err := jobStatus(ctx, c.coord.addr, cjID); err == nil && (st.State == "done" || st.State == "failed") {
			return 0, true // too fast; re-arm
		}
		for i, w := range c.workers {
			st, err := runningJob(ctx, w.addr)
			if err == nil && st.Completed >= 2 {
				victim = i
				break
			}
		}
		if victim < 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}

	_ = c.workers[victim].cmd.Process.Kill()
	if err := c.workers[victim].waitKilled(ctx); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: %v\n", err)
		return 1, false
	}
	fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: killed worker %s mid-job\n", c.workerAddrs[victim])

	// The coordinator must finish the job on the survivor.
	var st *jobStatusDoc
	for {
		st, err = jobStatus(ctx, c.coord.addr, cjID)
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job status: %v\n", err)
			return 1, false
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if ctx.Err() != nil {
			fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job never finished: %v\n", ctx.Err())
			return 1, false
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "done" {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job failed after failover: %s\n", st.Error)
		return 1, false
	}
	if st.Worker == c.workerAddrs[victim] {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job claims to have finished on the dead worker %s\n", st.Worker)
		return 1, false
	}

	// Byte-identity: the coordinator's cached bytes are the survivor's
	// response verbatim.
	body, sv, err := submitSync(ctx, c.coord.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: refetch: %v\n", err)
		return 1, false
	}
	if sv.cache != "hit" {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: refetch was %q, want coordinator cache hit\n", sv.cache)
		return 1, false
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: failover report differs from baseline (%d vs %d bytes)\n",
			len(body), len(baseline))
		return 1, false
	}

	// The survivor must have resumed journaled starts, not recomputed them.
	if st.Worker == "" || st.RemoteJob == "" {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: job status carries no worker/remote_job\n")
		return 1, false
	}
	sst, err := jobStatus(ctx, st.Worker, st.RemoteJob)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: survivor job status: %v\n", err)
		return 1, false
	}
	if sst.Resumed < 1 {
		fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: survivor recomputed everything (resumed=0); the journal handoff did nothing\n")
		return 1, false
	}
	fmt.Fprintf(opt.out, "hgchaos: cluster-worker-kill: survivor %s resumed %d journaled start(s)\n",
		st.Worker, sst.Resumed)
	return 0, false
}

// clusterCoordKill SIGKILLs the coordinator while a job is mid-route on a
// worker, then boots a fresh coordinator over the same fleet; the resubmit
// must coalesce onto the worker's still-running computation and reproduce
// the baseline bytes.
func clusterCoordKill(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "cluster-coord-kill"
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	c, err := startCluster(ctx, opt, name, 2, cpDir, []string{"-chaos", "write:.jsonl:p1:latency=150ms"})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	defer c.stopAll()

	if _, err := submitAsyncID(ctx, c.coord.addr, req); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: submit: %v\n", name, err)
		return 2
	}
	// Wait until a worker is visibly executing the routed job, then kill the
	// coordinator mid-route.
	for {
		if ctx.Err() != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, ctx.Err())
			return 2
		}
		running := false
		for _, w := range c.workers {
			if st, err := runningJob(ctx, w.addr); err == nil && st.Completed >= 1 {
				running = true
				break
			}
		}
		if running {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = c.coord.cmd.Process.Kill()
	if err := c.coord.waitKilled(ctx); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: killed coordinator mid-route\n", name)

	coord2, err := startDaemon(ctx, opt, name+"-coord2", []string{
		"-cluster-workers", strings.Join(c.workerAddrs, ","),
		"-heartbeat-interval", "100ms",
		"-checkpoint-dir", cpDir,
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: restart coordinator: %v\n", name, err)
		return 2
	}
	c.coord = coord2
	body, _, err := submitSync(ctx, coord2.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: resubmit: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: post-restart report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	return 0
}

// clusterDegrade points a coordinator at a fleet that does not exist: the
// request must still succeed (single-node degradation, no 5xx storm) with
// baseline-identical bytes, and the cluster view must show zero healthy
// workers with a local fallback recorded.
func clusterDegrade(ctx context.Context, opt options, req string, baseline []byte) int {
	name := "cluster-degrade"
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	dead, err := freeAddrs(2)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	coord, err := startDaemon(ctx, opt, name+"-coord", []string{
		"-cluster-workers", strings.Join(dead, ","),
		"-heartbeat-interval", "100ms",
		"-checkpoint-dir", cpDir,
	})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	defer coord.stop()

	body, sv, err := submitSync(ctx, coord.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: request against a dead fleet failed: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: degraded report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	if sv.cache != "local-fallback" {
		fmt.Fprintf(opt.out, "hgchaos: %s: disposition %q, want local-fallback\n", name, sv.cache)
		return 1
	}
	var cs struct {
		Healthy        int   `json:"healthy"`
		LocalFallbacks int64 `json:"local_fallbacks"`
	}
	if err := getJSON(ctx, "http://"+coord.addr+"/v1/cluster", &cs); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: cluster status: %v\n", name, err)
		return 1
	}
	if cs.Healthy != 0 || cs.LocalFallbacks < 1 {
		fmt.Fprintf(opt.out, "hgchaos: %s: cluster view healthy=%d local_fallbacks=%d, want 0 and >=1\n",
			name, cs.Healthy, cs.LocalFallbacks)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: dead fleet degraded to a local compute, bytes identical\n", name)
	return 0
}

// jobStatusDoc is the subset of the job-status document the scenarios read.
type jobStatusDoc struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Resumed   int    `json:"resumed"`
	Worker    string `json:"worker"`
	RemoteJob string `json:"remote_job"`
	Error     string `json:"error"`
}

func jobStatus(ctx context.Context, addr, id string) (*jobStatusDoc, error) {
	if id == "" {
		return nil, fmt.Errorf("response carried no X-Hgserved-Job header")
	}
	var st jobStatusDoc
	if err := getJSON(ctx, "http://"+addr+"/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// runningJob returns the first running job in a worker's job list, or an
// error when none is running.
func runningJob(ctx context.Context, addr string) (*jobStatusDoc, error) {
	var jobs []jobStatusDoc
	if err := getJSON(ctx, "http://"+addr+"/v1/jobs", &jobs); err != nil {
		return nil, err
	}
	for i := range jobs {
		if jobs[i].State == "running" {
			return &jobs[i], nil
		}
	}
	return nil, fmt.Errorf("no running job on %s", addr)
}

func getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// submitAsyncID fires the workload asynchronously and returns the job id.
func submitAsyncID(ctx context.Context, addr, req string) (string, error) {
	async := strings.TrimSuffix(strings.TrimSpace(req), "}") + `,"async":true}`
	resp, err := httpPost(ctx, "http://"+addr+"/v1/partition", async)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("async submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var doc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Job == "" {
		return "", fmt.Errorf("async submit: no job id in %s", bytes.TrimSpace(b))
	}
	return doc.Job, nil
}
