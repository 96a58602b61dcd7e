// Command hgchaos is the crash-consistency harness: it boots a real
// hgserved daemon, submits a reproducible workload, kills the daemon at
// fault-injected points (mid-record write, mid-fsync, mid-drain), restarts
// it, resubmits the identical request, and asserts that the recovered
// report is byte-identical to an uninterrupted run.
//
// Usage:
//
//	hgchaos -bin ./hgserved -seed 7 -scenarios mid-record,mid-fsync,mid-drain
//
// The kill points ride on hgserved's -chaos flag (internal/chaos fault
// specs), so where the process dies is a deterministic function of the spec,
// never of timing. What hgchaos proves end to end:
//
//   - the journal's completed starts survive a SIGKILL (torn tails included),
//   - recovery quarantines damaged records instead of aborting,
//   - the resumed run reproduces the uninterrupted report byte for byte.
//
// Cluster scenarios (cluster-topology, cluster-worker-kill,
// cluster-coord-kill, cluster-degrade) extend the proof to node-level
// faults: a coordinator plus worker fleet is booted, a worker (or the
// coordinator) is SIGKILLed mid-job, and the failed-over, journal-resumed
// result — or the fully degraded local compute — must still be
// byte-identical to the uninterrupted single-node baseline.
//
// The portfolio scenario proves mode=portfolio determinism: identical
// report bytes across a repeat, a restart on the same checkpoint dir, a
// daemon with no checkpoint dir, and 1/2/3-worker cluster topologies.
//
// Network chaos scenarios (net-partition, slow-peer, corrupt-response,
// flapping-worker) arm hgserved's -net-chaos transport instead of killing
// processes: blackholed workers trip circuit breakers and reroute, slow
// peers demote to local computes, bit-corrupted RPC responses are caught by
// the sha256 envelope and retried without poisoning any cache, and a
// flapping worker's breaker recovers closed — all with baseline-identical
// report bytes (DESIGN.md §16).
//
// Exit codes: 0 all scenarios hold, 1 a crash-consistency assertion failed,
// 2 environment/setup failure.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"hgpart/internal/chaos"
)

func main() {
	var (
		bin       = flag.String("bin", "hgserved", "path to the hgserved binary under test")
		seed      = flag.Uint64("seed", 7, "workload seed (reports are a pure function of it)")
		starts    = flag.Int("starts", 6, "multistart count in the workload")
		scale     = flag.Float64("scale", 0.2, "benchmark downscale factor for the workload instance")
		scenarios = flag.String("scenarios", "mid-record,mid-fsync,mid-drain", "comma-separated kill scenarios")
		workdir   = flag.String("workdir", "", "working directory (default: a fresh temp dir, removed on success)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall harness deadline")
	)
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	os.Exit(run(ctx, options{
		bin:       *bin,
		seed:      *seed,
		starts:    *starts,
		scale:     *scale,
		scenarios: strings.Split(*scenarios, ","),
		workdir:   *workdir,
		out:       os.Stdout,
	}))
}

type options struct {
	bin       string
	seed      uint64
	starts    int
	scale     float64
	scenarios []string
	workdir   string
	out       io.Writer
}

// scenario describes one kill point. Specs count operations on the journal:
// the header is write/sync #1 on a ".jsonl" path, record k is #(k+1).
type scenario struct {
	name string
	// spec arms hgserved's -chaos fault injection.
	spec string
	// external kills from outside: SIGTERM to start the drain, then SIGKILL
	// before it can finish.
	external bool
	// wantResume asserts the recovery run resumed >= 1 journaled start —
	// guaranteed when the spec lets >= 1 record become durable before dying.
	wantResume bool
	// wantQuarantine asserts recovery quarantined a damaged record into the
	// journal's .quarantine sidecar (torn-write scenarios).
	wantQuarantine bool
}

var scenarioByName = map[string]scenario{
	// Die halfway through the 3rd record's write: records 1-2 durable,
	// record 3 torn. Recovery must quarantine the torn tail and resume 2.
	"mid-record": {name: "mid-record", spec: "write:.jsonl:4:torn+kill", wantResume: true, wantQuarantine: true},
	// Die inside the 4th record's fsync: the record's bytes were written
	// but never acknowledged durable. Recovery takes whatever survived.
	"mid-fsync": {name: "mid-fsync", spec: "sync:.jsonl:5:kill", wantResume: true},
	// SIGTERM starts the graceful drain (running job interrupted, completed
	// starts journaled), then SIGKILL lands before the drain finishes. The
	// latency spec stretches every journal write so the workload is reliably
	// still in flight at SIGTERM and still draining at SIGKILL.
	"mid-drain": {name: "mid-drain", spec: "write:.jsonl:p1:latency=120ms", external: true},
}

func run(ctx context.Context, opt options) int {
	if opt.workdir == "" {
		dir, err := os.MkdirTemp("", "hgchaos-*")
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: workdir: %v\n", err)
			return 2
		}
		opt.workdir = dir
		defer os.RemoveAll(dir)
	}
	req := fmt.Sprintf(`{"benchmark":"ibm01","scale":%g,"engine":"flat","starts":%d,"seed":%d}`,
		opt.scale, opt.starts, opt.seed)

	baseline, code := baselineReport(ctx, opt, req)
	if baseline == nil {
		return code
	}
	fmt.Fprintf(opt.out, "hgchaos: baseline report: %d bytes (seed %d, %d starts)\n",
		len(baseline), opt.seed, opt.starts)

	failed := 0
	for _, name := range opt.scenarios {
		name = strings.TrimSpace(name)
		var rc int
		if strings.HasPrefix(name, "cluster-") {
			rc = runClusterScenario(ctx, opt, name, req, baseline)
		} else if slices.Contains(netScenarioNames, name) {
			rc = runNetScenario(ctx, opt, name, req, baseline)
		} else if name == "portfolio" {
			rc = runPortfolioScenario(ctx, opt)
		} else {
			sc, ok := scenarioByName[name]
			if !ok {
				fmt.Fprintf(opt.out, "hgchaos: unknown scenario %q\n", name)
				return 2
			}
			rc = runScenario(ctx, opt, sc, req, baseline)
		}
		switch rc {
		case 0:
			fmt.Fprintf(opt.out, "hgchaos: %-10s PASS\n", name)
		case 1:
			fmt.Fprintf(opt.out, "hgchaos: %-10s FAIL\n", name)
			failed++
		default:
			return rc
		}
	}
	if failed > 0 {
		fmt.Fprintf(opt.out, "hgchaos: %d scenario(s) failed\n", failed)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: all scenarios hold: recovered reports are byte-identical\n")
	return 0
}

// baselineReport computes the uninterrupted reference answer.
func baselineReport(ctx context.Context, opt options, req string) ([]byte, int) {
	d, err := startDaemon(ctx, opt, "baseline", nil)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: baseline daemon: %v\n", err)
		return nil, 2
	}
	defer d.stop()
	body, _, err := submitSync(ctx, d.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: baseline request: %v\n", err)
		return nil, 2
	}
	return body, 0
}

// runScenario executes one kill/restart/verify cycle. Returns 0 on pass,
// 1 on assertion failure, 2 on environment failure.
func runScenario(ctx context.Context, opt options, sc scenario, req string, baseline []byte) int {
	cpDir := filepath.Join(opt.workdir, sc.name, "checkpoints")

	// Phase 1: boot with the kill armed, submit, and watch the daemon die.
	// Spec-armed kills are deterministic (the process kills itself on the
	// Nth journal operation). External kills race the drain by construction;
	// if the daemon wins and exits cleanly there is nothing to verify, so
	// re-arm with a different SIGTERM delay, bounded.
	termDelays := []time.Duration{250 * time.Millisecond}
	if sc.external {
		termDelays = []time.Duration{250 * time.Millisecond, 180 * time.Millisecond,
			310 * time.Millisecond, 210 * time.Millisecond, 280 * time.Millisecond}
	}
	killed := false
	for attempt, termDelay := range termDelays {
		if err := os.RemoveAll(cpDir); err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", sc.name, err)
			return 2
		}
		if err := os.MkdirAll(cpDir, 0o755); err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", sc.name, err)
			return 2
		}
		var extra []string
		if sc.spec != "" {
			extra = []string{"-chaos", sc.spec}
		}
		d, err := startDaemon(ctx, opt, fmt.Sprintf("%s-victim-%d", sc.name, attempt),
			append(extra, "-checkpoint-dir", cpDir))
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: victim daemon: %v\n", sc.name, err)
			return 2
		}
		// Async submit: the victim may die before a sync response arrives.
		if _, err := submitAsyncID(ctx, d.addr, req); err != nil && !sc.external {
			// A self-killing spec only fires on a journal write, which
			// happens after the 202 is sent; a submit error there is real.
			fmt.Fprintf(opt.out, "hgchaos: %s: submit: %v\n", sc.name, err)
			d.stop()
			return 2
		}
		if sc.external {
			// Let the run get going, SIGTERM to start the drain
			// (interrupting the job and journaling its completed starts),
			// then SIGKILL before the drain can finish. After SIGTERM the
			// drain lasts only the remainder of the in-flight delayed write,
			// so the kill must follow fast; when SIGTERM lands in the narrow
			// idle gap between writes the drain wins and we re-arm.
			time.Sleep(termDelay)
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
			time.Sleep(25 * time.Millisecond)
			_ = d.cmd.Process.Kill()
		}
		err = d.waitKilled(ctx)
		if err == nil {
			killed = true
			break
		}
		if sc.external && attempt < len(termDelays)-1 {
			fmt.Fprintf(opt.out, "hgchaos: %s: drain outran the kill (%v); re-arming\n", sc.name, err)
			continue
		}
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", sc.name, err)
		return 1
	}
	if !killed {
		return 1
	}
	journals, _ := filepath.Glob(filepath.Join(cpDir, "*.jsonl"))
	if len(journals) == 0 {
		fmt.Fprintf(opt.out, "hgchaos: %s: no journal survived the kill\n", sc.name)
		return 1
	}

	// Phase 2: restart clean on the same checkpoint dir and resubmit.
	d2, err := startDaemon(ctx, opt, sc.name+"-recovery", []string{"-checkpoint-dir", cpDir})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: recovery daemon: %v\n", sc.name, err)
		return 2
	}
	defer d2.stop()
	body, sv, err := submitSync(ctx, d2.addr, req, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: recovery request: %v\n", sc.name, err)
		return 1
	}

	// The core guarantee: recovery reproduces the uninterrupted answer.
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: recovered report differs from baseline (%d vs %d bytes)\n",
			sc.name, len(body), len(baseline))
		return 1
	}
	if sc.wantResume {
		st, err := jobStatus(ctx, d2.addr, sv.job)
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: job status: %v\n", sc.name, err)
			return 1
		}
		if st.Resumed < 1 {
			fmt.Fprintf(opt.out, "hgchaos: %s: recovery recomputed everything (resumed=0); the journal did its job in vain\n", sc.name)
			return 1
		}
		fmt.Fprintf(opt.out, "hgchaos: %s: resumed %d journaled start(s)\n", sc.name, st.Resumed)
	}
	if sc.wantQuarantine {
		side, _ := filepath.Glob(filepath.Join(cpDir, "*.jsonl.quarantine"))
		if len(side) == 0 {
			fmt.Fprintf(opt.out, "hgchaos: %s: torn record left no quarantine sidecar\n", sc.name)
			return 1
		}
	}
	return 0
}

// daemon is one hgserved process under harness control.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startDaemon boots hgserved on an ephemeral port and waits (with seeded
// jittered backoff) for the addr-file handshake.
func startDaemon(ctx context.Context, opt options, name string, extraArgs []string) (*daemon, error) {
	dir := filepath.Join(opt.workdir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "1",
		"-start-workers", "1",
		"-stuck-after", "0",
	}, extraArgs...)
	cmd := exec.Command(opt.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", opt.bin, err)
	}
	d := &daemon{cmd: cmd, log: logf}

	retry := chaos.Retry{MaxAttempts: 50, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: opt.seed}
	err = retry.Do(ctx, func() (time.Duration, bool, error) {
		b, err := os.ReadFile(addrFile)
		if err != nil || len(bytes.TrimSpace(b)) == 0 {
			return 0, true, fmt.Errorf("addr-file not ready: %v", err)
		}
		d.addr = string(bytes.TrimSpace(b))
		return 0, false, nil
	})
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon %s never published its address: %w", name, err)
	}
	return d, nil
}

// stop terminates the daemon gracefully (best-effort) and reaps it.
func (d *daemon) stop() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = d.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
	}
	d.log.Close()
}

// waitKilled reaps the process and asserts it died by SIGKILL — the fault
// spec's self-kill or the harness's external kill, never a clean exit.
func (d *daemon) waitKilled(ctx context.Context) error {
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-ctx.Done():
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon outlived the kill point: %w", ctx.Err())
	}
	defer d.log.Close()
	ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		return fmt.Errorf("daemon exited %q, want death by SIGKILL", d.cmd.ProcessState)
	}
	return nil
}

// served is what a sync response's headers say about its job: the job id
// and the X-Hgserved-Cache disposition, so scenarios can assert HOW the
// bytes were produced (hit, local-fallback, ...), not just what they are.
type served struct {
	job   string
	cache string
}

// submitSync posts the workload and returns the report body and what the
// headers say about it, retrying 503s (daemon still draining or warming)
// with seeded backoff that honors Retry-After.
func submitSync(ctx context.Context, addr, req string, seed uint64) (body []byte, sv served, err error) {
	retry := chaos.Retry{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Seed: seed}
	err = retry.Do(ctx, func() (time.Duration, bool, error) {
		resp, herr := httpPost(ctx, "http://"+addr+"/v1/partition", req)
		if herr != nil {
			return 0, true, herr
		}
		defer resp.Body.Close()
		b, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return 0, true, rerr
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			after, _ := chaos.RetryAfterHeader(resp.Header.Get("Retry-After"))
			return after, true, fmt.Errorf("503: %s", bytes.TrimSpace(b))
		}
		if resp.StatusCode != http.StatusOK {
			return 0, false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		body = b
		sv = served{job: resp.Header.Get("X-Hgserved-Job"), cache: resp.Header.Get("X-Hgserved-Cache")}
		return 0, false, nil
	})
	return body, sv, err
}

func httpPost(ctx context.Context, url, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}
