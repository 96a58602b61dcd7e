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
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
)

// cluster is a coordinator plus its worker fleet under harness control.
type cluster struct {
	cpDir   string   // the checkpoint dir every node journals to
	addrs   []string // worker addresses, in boot order
	workers []*daemon
	coord   *daemon
}

func (c *cluster) stop() {
	if c.coord != nil {
		c.coord.stop()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

// busyWorker returns the index of a worker running a job with at least
// minDone starts completed, or -1.
func (c *cluster) busyWorker(ctx context.Context, minDone int) int {
	for i, w := range c.workers {
		var jobs []jobStatusDoc
		if getJSON(ctx, "http://"+w.addr+"/v1/jobs", &jobs) != nil {
			continue
		}
		for _, j := range jobs {
			if j.State == "running" && j.Completed >= minDone {
				return i
			}
		}
	}
	return -1
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; workers need their addresses known up front so each can be started
// with -peers naming its siblings. Its errors are environment failures.
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
			return nil, envError{err}
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCoord boots a coordinator routing to workers and journaling to
// cpDir; extra adds the scenario's own flags.
func startCoord(ctx context.Context, e *env, tag string, workers []string, cpDir string, extra ...string) (*daemon, error) {
	return startDaemon(ctx, e, tag, append([]string{
		"-cluster-workers", strings.Join(workers, ","),
		"-heartbeat-interval", "100ms",
		"-checkpoint-dir", cpDir,
	}, extra...)...)
}

// startCluster boots n workers under e.path(tag), peered with each other
// and journaling to one shared checkpoint dir, with workerArgs added, and a
// coordinator routing to all of them. coordArgs, when non-nil, returns
// extra coordinator flags given the worker addresses.
func startCluster(ctx context.Context, e *env, tag string, n int, workerArgs []string,
	coordArgs func(workers []string) []string) (*cluster, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	c := &cluster{cpDir: e.path(tag, "checkpoints"), addrs: addrs}
	for i, addr := range addrs {
		args := []string{"-addr", addr, "-checkpoint-dir", c.cpDir}
		if peers := slices.Delete(slices.Clone(addrs), i, i+1); len(peers) > 0 {
			args = append(args, "-peers", strings.Join(peers, ","))
		}
		w, err := startDaemon(ctx, e, filepath.Join(tag, fmt.Sprintf("w%d", i)), append(args, workerArgs...)...)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	var extra []string
	if coordArgs != nil {
		extra = coordArgs(addrs)
	}
	if c.coord, err = startCoord(ctx, e, filepath.Join(tag, "coord"), addrs, c.cpDir, extra...); err != nil {
		c.stop()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	return c, nil
}

// clusterTopology proves placement-independence: 1-, 2- and 3-worker
// clusters all reproduce the single-node baseline byte for byte, and a
// repeated request is served from the coordinator's cache.
func clusterTopology(ctx context.Context, e *env) error {
	return acrossTopologies(ctx, e, true)
}

// acrossTopologies boots 1-, 2- and 3-worker clusters in turn; each must
// serve e.baseline, and with repeatHit a second request must be a
// byte-identical coordinator cache hit.
func acrossTopologies(ctx context.Context, e *env, repeatHit bool) error {
	for n := 1; n <= 3; n++ {
		err := func() error {
			c, err := startCluster(ctx, e, fmt.Sprintf("cluster-%d", n), n, nil, nil)
			if err != nil {
				return fmt.Errorf("%d workers: %w", n, err)
			}
			defer c.stop()
			what := fmt.Sprintf("%d-worker report", n)
			if _, err := e.expect(ctx, c.coord.addr, what, ""); err != nil {
				return err
			}
			if repeatHit {
				_, err = e.expect(ctx, c.coord.addr, "repeated "+what, "hit")
			}
			return err
		}()
		if err != nil {
			return err
		}
		e.logf("%d worker(s) byte-identical", n)
	}
	return nil
}

// clusterWorkerKill is the core failover proof: SIGKILL the worker that is
// computing the job mid-run; the coordinator must fail the job over to the
// survivor, which resumes from the shared journal (resumed >= 1) and
// produces bytes identical to the uninterrupted single-node baseline.
func clusterWorkerKill(ctx context.Context, e *env) error {
	const rearms = 3
	for attempt := 0; attempt < rearms; attempt++ {
		rearm, err := clusterWorkerKillOnce(ctx, e, attempt)
		if err != nil || !rearm {
			return err
		}
		e.logf("job finished before the kill landed; re-arming")
	}
	return fmt.Errorf("could not catch the job mid-run after %d attempts", rearms)
}

// clusterWorkerKillOnce makes one attempt; rearm reports that the job
// finished before a victim could be picked.
func clusterWorkerKillOnce(ctx context.Context, e *env, attempt int) (rearm bool, err error) {
	// The latency spec stretches every journal write so the job is reliably
	// still mid-run when the kill lands (same trick as mid-drain).
	c, err := startCluster(ctx, e, fmt.Sprintf("try-%d", attempt), 2,
		[]string{"-chaos", "write:.jsonl:p1:latency=150ms"}, nil)
	if err != nil {
		return false, err
	}
	defer c.stop()
	id, err := submitAsyncID(ctx, c.coord.addr, e.req)
	if err != nil {
		return false, err
	}

	// Find the worker actually executing the job, and wait until it has >= 2
	// starts done — by then >= 1 journal record is durable (records are
	// written and fsynced by the same goroutine that counts completions, so
	// completion k acknowledges record k-1).
	victim := -1
	err = poll(ctx, func() (bool, error) {
		if st, err := jobStatus(ctx, c.coord.addr, id); err == nil && (st.State == "done" || st.State == "failed") {
			rearm = true // too fast
			return true, nil
		}
		victim = c.busyWorker(ctx, 2)
		return victim >= 0, nil
	})
	if err != nil {
		return false, envError{err}
	}
	if rearm {
		return true, nil
	}

	_ = c.workers[victim].cmd.Process.Kill()
	if err := c.workers[victim].waitKilled(ctx); err != nil {
		return false, err
	}
	e.logf("killed worker %s mid-job", c.addrs[victim])

	// The coordinator must finish the job on the survivor.
	var st *jobStatusDoc
	err = poll(ctx, func() (bool, error) {
		var err error
		if st, err = jobStatus(ctx, c.coord.addr, id); err != nil {
			return false, fmt.Errorf("job status: %w", err)
		}
		return st.State == "done" || st.State == "failed", nil
	})
	if err != nil {
		return false, fmt.Errorf("job never finished: %w", err)
	}
	if st.State != "done" {
		return false, fmt.Errorf("job failed after failover: %s", st.Error)
	}
	if st.Worker == c.addrs[victim] {
		return false, fmt.Errorf("job claims to have finished on the dead worker %s", st.Worker)
	}

	// Byte-identity: the coordinator's cached bytes are the survivor's
	// response verbatim.
	if _, err := e.expect(ctx, c.coord.addr, "failover report", "hit"); err != nil {
		return false, err
	}

	// The survivor must have resumed journaled starts, not recomputed them.
	if st.Worker == "" || st.RemoteJob == "" {
		return false, errors.New("job status carries no worker/remote_job")
	}
	sst, err := jobStatus(ctx, st.Worker, st.RemoteJob)
	if err != nil {
		return false, fmt.Errorf("survivor job status: %w", err)
	}
	if sst.Resumed < 1 {
		return false, errors.New("survivor recomputed everything (resumed=0); the journal handoff did nothing")
	}
	e.logf("survivor %s resumed %d journaled start(s)", st.Worker, sst.Resumed)
	return false, nil
}

// clusterCoordKill SIGKILLs the coordinator while a job is mid-route on a
// worker, then boots a fresh coordinator over the same fleet; the resubmit
// must coalesce onto the worker's still-running computation and reproduce
// the baseline bytes.
func clusterCoordKill(ctx context.Context, e *env) error {
	c, err := startCluster(ctx, e, "", 2, []string{"-chaos", "write:.jsonl:p1:latency=150ms"}, nil)
	if err != nil {
		return err
	}
	defer c.stop()
	if _, err := submitAsyncID(ctx, c.coord.addr, e.req); err != nil {
		return err
	}
	// Wait until a worker is visibly executing the routed job, then kill the
	// coordinator mid-route.
	if err := poll(ctx, func() (bool, error) { return c.busyWorker(ctx, 1) >= 0, nil }); err != nil {
		return envError{err}
	}
	_ = c.coord.cmd.Process.Kill()
	if err := c.coord.waitKilled(ctx); err != nil {
		return err
	}
	e.logf("killed coordinator mid-route")

	if c.coord, err = startCoord(ctx, e, "coord2", c.addrs, c.cpDir); err != nil {
		return fmt.Errorf("restart coordinator: %w", err)
	}
	_, err = e.expect(ctx, c.coord.addr, "post-restart report", "")
	return err
}

// clusterDegrade points a coordinator at a fleet that does not exist: the
// request must still succeed (single-node degradation, no 5xx storm) with
// baseline-identical bytes, and the cluster view must show zero healthy
// workers with a local fallback recorded.
func clusterDegrade(ctx context.Context, e *env) error {
	dead, err := freeAddrs(2)
	if err != nil {
		return err
	}
	coord, err := startCoord(ctx, e, "coord", dead, e.path("checkpoints"))
	if err != nil {
		return err
	}
	defer coord.stop()

	if _, err := e.expect(ctx, coord.addr, "degraded report", "local-fallback"); err != nil {
		return err
	}
	var doc clusterDoc
	if err := getJSON(ctx, "http://"+coord.addr+"/v1/cluster", &doc); err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	if doc.Healthy != 0 || doc.LocalFallbacks < 1 {
		return fmt.Errorf("cluster view healthy=%d local_fallbacks=%d, want 0 and >=1",
			doc.Healthy, doc.LocalFallbacks)
	}
	e.logf("dead fleet degraded to a local compute, bytes identical")
	return nil
}

// jobStatusDoc is the subset of the job-status document the scenarios read.
type jobStatusDoc struct {
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
