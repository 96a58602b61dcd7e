// Command hgchaos is the crash-consistency harness: it boots real hgserved
// daemons, submits a reproducible workload, injects faults (kills at
// journal operations, node kills, network faults), and asserts that every
// report that comes back is byte-identical to an uninterrupted run.
//
// Usage:
//
//	hgchaos -bin ./hgserved -seed 7 -scenarios mid-record,mid-fsync,mid-drain
//
// Every scenario is one entry of a single ordered table (scenarioTable).
// Names are checked before any daemon boots, and the uninterrupted
// single-node baseline is computed only when a requested scenario compares
// against it.
//
// Kill scenarios (mid-record, mid-fsync, mid-drain) ride on hgserved's
// -chaos flag (internal/chaos fault specs), so where the process dies is a
// deterministic function of the spec, never of timing. They prove:
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
// Network chaos scenarios (net-partition, slow-peer, corrupt-response,
// flapping-worker) arm hgserved's -net-chaos transport instead of killing
// processes: blackholed workers trip circuit breakers and reroute, slow
// peers demote to local computes, bit-corrupted RPC responses are caught by
// the sha256 envelope and retried without poisoning any cache, and a
// flapping worker's breaker recovers closed — all with baseline-identical
// report bytes (DESIGN.md §16).
//
// The portfolio scenario proves mode=portfolio determinism against its own
// baseline: identical report bytes across a repeat, a restart on the same
// checkpoint dir, a daemon with no checkpoint dir, and 1/2/3-worker cluster
// topologies.
//
// Exit codes: 0 all scenarios hold; 1 an assertion failed (the remaining
// scenarios still run); 2 an unknown scenario name or an environment
// failure — a daemon that would not boot or a setup request that failed —
// which stops the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
		scenarios = flag.String("scenarios", "mid-record,mid-fsync,mid-drain", "comma-separated scenario names")
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

// env is what one scenario runs against: the options, its own name (which
// also names its directory under workdir), and the workload with its
// uninterrupted answer.
type env struct {
	options
	name     string
	req      string // the workload request
	baseline []byte // the uninterrupted single-node report for req
}

// scenario is one entry of the table. A run returns nil when every
// assertion holds, an envError when the harness could not set the scenario
// up, and any other error when an assertion failed.
type scenario struct {
	name string
	run  func(ctx context.Context, e *env) error
	// ownBaseline scenarios compute their own reference answer, so the flat
	// baseline is not needed for them.
	ownBaseline bool
}

var scenarioTable = []scenario{
	// Die halfway through the 3rd record's write: records 1-2 durable,
	// record 3 torn. Recovery must quarantine the torn tail and resume 2.
	{name: "mid-record", run: killPoint{spec: "write:.jsonl:4:torn+kill", wantResume: true, wantQuarantine: true}.run},
	// Die inside the 4th record's fsync: the record's bytes were written
	// but never acknowledged durable. Recovery takes whatever survived.
	{name: "mid-fsync", run: killPoint{spec: "sync:.jsonl:5:kill", wantResume: true}.run},
	// SIGTERM starts the graceful drain (running job interrupted, completed
	// starts journaled), then SIGKILL lands before the drain finishes. The
	// latency spec stretches every journal write so the workload is reliably
	// still in flight at SIGTERM and still draining at SIGKILL.
	{name: "mid-drain", run: killPoint{spec: "write:.jsonl:p1:latency=120ms", external: true}.run},
	{name: "cluster-topology", run: clusterTopology},
	{name: "cluster-worker-kill", run: clusterWorkerKill},
	{name: "cluster-coord-kill", run: clusterCoordKill},
	{name: "cluster-degrade", run: clusterDegrade},
	{name: "net-partition", run: netPartition},
	{name: "slow-peer", run: slowPeer},
	{name: "corrupt-response", run: corruptResponse},
	{name: "flapping-worker", run: flappingWorker},
	{name: "portfolio", run: portfolioScenario, ownBaseline: true},
}

// envError marks an environment failure: nothing was proved either way, so
// the run stops with exit 2.
type envError struct{ error }

func (e envError) Unwrap() error { return e.error }

func run(ctx context.Context, opt options) (code int) {
	var todo []scenario
	for _, name := range opt.scenarios {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(scenarioTable, func(sc scenario) bool { return sc.name == name })
		if i < 0 {
			var have []string
			for _, sc := range scenarioTable {
				have = append(have, sc.name)
			}
			fmt.Fprintf(opt.out, "hgchaos: unknown scenario %q (have %s)\n", name, strings.Join(have, ", "))
			return 2
		}
		todo = append(todo, scenarioTable[i])
	}
	if opt.workdir == "" {
		dir, err := os.MkdirTemp("", "hgchaos-*")
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: workdir: %v\n", err)
			return 2
		}
		opt.workdir = dir
		defer func() {
			if code == 0 {
				os.RemoveAll(dir)
				return
			}
			// The daemons' logs and journals are the evidence of a failed run.
			fmt.Fprintf(opt.out, "hgchaos: workdir kept: %s\n", dir)
		}()
	}
	req := fmt.Sprintf(`{"benchmark":"ibm01","scale":%g,"engine":"flat","starts":%d,"seed":%d}`,
		opt.scale, opt.starts, opt.seed)

	var baseline []byte
	if slices.ContainsFunc(todo, func(sc scenario) bool { return !sc.ownBaseline }) {
		var err error
		if baseline, err = baselineReport(ctx, &env{options: opt, name: "baseline", req: req}); err != nil {
			fmt.Fprintf(opt.out, "hgchaos: baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(opt.out, "hgchaos: baseline report: %d bytes (seed %d, %d starts)\n",
			len(baseline), opt.seed, opt.starts)
	}

	failed := 0
	for _, sc := range todo {
		err := sc.run(ctx, &env{options: opt, name: sc.name, req: req, baseline: baseline})
		if err == nil {
			fmt.Fprintf(opt.out, "hgchaos: %-10s PASS\n", sc.name)
			continue
		}
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", sc.name, err)
		if errors.As(err, new(envError)) {
			return 2
		}
		fmt.Fprintf(opt.out, "hgchaos: %-10s FAIL\n", sc.name)
		failed++
	}
	if failed > 0 {
		fmt.Fprintf(opt.out, "hgchaos: %d scenario(s) failed\n", failed)
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: all scenarios hold: recovered reports are byte-identical\n")
	return 0
}

// baselineReport computes the uninterrupted reference answer.
func baselineReport(ctx context.Context, e *env) ([]byte, error) {
	d, err := startDaemon(ctx, e, "uninterrupted")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	body, _, err := submitSync(ctx, d.addr, e.req, e.seed)
	if err != nil {
		return nil, fmt.Errorf("request: %w", err)
	}
	return body, nil
}

// logf prints one progress line under the scenario's name.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, "hgchaos: %s: %s\n", e.name, fmt.Sprintf(format, args...))
}

// path names a file under the scenario's own directory.
func (e *env) path(elem ...string) string {
	return filepath.Join(append([]string{e.workdir, e.name}, elem...)...)
}

// expect submits e.req to addr and requires e.baseline back byte for byte,
// served with the given X-Hgserved-Cache disposition ("" accepts any). what
// names the report in a failure.
func (e *env) expect(ctx context.Context, addr, what, disposition string) (served, error) {
	body, sv, err := submitSync(ctx, addr, e.req, e.seed)
	if err != nil {
		return sv, fmt.Errorf("%s: %w", what, err)
	}
	if !bytes.Equal(body, e.baseline) {
		return sv, fmt.Errorf("%s differs from baseline (%d vs %d bytes)", what, len(body), len(e.baseline))
	}
	if disposition != "" && sv.cache != disposition {
		return sv, fmt.Errorf("%s served as %q, want %s", what, sv.cache, disposition)
	}
	return sv, nil
}

// killPoint is a kill scenario. Specs count operations on the journal: the
// header is write/sync #1 on a ".jsonl" path, record k is #(k+1).
type killPoint struct {
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

// drainKillDelays are the SIGTERM delays an external kill tries in turn.
var drainKillDelays = []time.Duration{250 * time.Millisecond, 180 * time.Millisecond,
	310 * time.Millisecond, 210 * time.Millisecond, 280 * time.Millisecond}

// run executes one kill/restart/verify cycle.
func (k killPoint) run(ctx context.Context, e *env) error {
	cpDir := e.path("checkpoints")

	// Phase 1: boot with the kill armed, submit, and watch the daemon die.
	// Spec-armed kills are deterministic (the process kills itself on the
	// Nth journal operation). External kills race the drain by construction;
	// if the daemon wins and exits cleanly there is nothing to verify, so
	// re-arm with a different SIGTERM delay, bounded.
	attempts := 1
	if k.external {
		attempts = len(drainKillDelays)
	}
	for attempt := 0; ; attempt++ {
		if err := os.RemoveAll(cpDir); err != nil {
			return envError{err}
		}
		d, err := startDaemon(ctx, e, fmt.Sprintf("victim-%d", attempt), "-chaos", k.spec, "-checkpoint-dir", cpDir)
		if err != nil {
			return fmt.Errorf("victim daemon: %w", err)
		}
		// Async submit: the victim may die before a sync response arrives.
		if _, err := submitAsyncID(ctx, d.addr, e.req); err != nil && !k.external {
			// A self-killing spec only fires on a journal write, which
			// happens after the 202 is sent; a submit error there is real.
			d.stop()
			return err
		}
		if k.external {
			// Let the run get going, SIGTERM to start the drain
			// (interrupting the job and journaling its completed starts),
			// then SIGKILL before the drain can finish. After SIGTERM the
			// drain lasts only the remainder of the in-flight delayed write,
			// so the kill must follow fast; when SIGTERM lands in the narrow
			// idle gap between writes the drain wins and we re-arm.
			time.Sleep(drainKillDelays[attempt])
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
			time.Sleep(25 * time.Millisecond)
			_ = d.cmd.Process.Kill()
		}
		err = d.waitKilled(ctx)
		if err == nil {
			break
		}
		if attempt == attempts-1 {
			return err
		}
		e.logf("drain outran the kill (%v); re-arming", err)
	}
	journals, _ := filepath.Glob(filepath.Join(cpDir, "*.jsonl"))
	if len(journals) == 0 {
		return errors.New("no journal survived the kill")
	}

	// Phase 2: restart clean on the same checkpoint dir and resubmit. The
	// core guarantee: recovery reproduces the uninterrupted answer.
	d2, err := startDaemon(ctx, e, "recovery", "-checkpoint-dir", cpDir)
	if err != nil {
		return fmt.Errorf("recovery daemon: %w", err)
	}
	defer d2.stop()
	sv, err := e.expect(ctx, d2.addr, "recovered report", "")
	if err != nil {
		return err
	}
	if k.wantResume {
		st, err := jobStatus(ctx, d2.addr, sv.job)
		if err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		if st.Resumed < 1 {
			return errors.New("recovery recomputed everything (resumed=0); the journal did its job in vain")
		}
		e.logf("resumed %d journaled start(s)", st.Resumed)
	}
	if k.wantQuarantine {
		if side, _ := filepath.Glob(filepath.Join(cpDir, "*.jsonl.quarantine")); len(side) == 0 {
			return errors.New("torn record left no quarantine sidecar")
		}
	}
	return nil
}

// daemon is one hgserved process under harness control.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startDaemon boots hgserved on an ephemeral port (args may override it)
// under e.path(tag) and waits, with seeded jittered backoff, for the
// addr-file handshake. Its errors are environment failures.
func startDaemon(ctx context.Context, e *env, tag string, args ...string) (_ *daemon, err error) {
	defer func() {
		if err != nil {
			err = envError{err}
		}
	}()
	dir := e.path(tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin, append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "1",
		"-start-workers", "1",
		"-stuck-after", "0",
	}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", e.bin, err)
	}
	d := &daemon{cmd: cmd, log: logf}

	retry := chaos.Retry{MaxAttempts: 50, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: e.seed}
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
		return nil, fmt.Errorf("daemon %s never published its address: %w", tag, err)
	}
	return d, nil
}

// stop terminates the daemon gracefully (best-effort) and reaps it; it is a
// no-op on a daemon already reaped.
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

// poll calls done every 10ms until it reports true or an error, or ctx
// ends.
func poll(ctx context.Context, done func() (bool, error)) error {
	for {
		if ok, err := done(); ok || err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
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

// submitAsyncID fires the workload asynchronously and returns the job id.
// Its errors are environment failures: the scenario never got going.
func submitAsyncID(ctx context.Context, addr, req string) (_ string, err error) {
	defer func() {
		if err != nil {
			err = envError{fmt.Errorf("async submit: %w", err)}
		}
	}()
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
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var doc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Job == "" {
		return "", fmt.Errorf("no job id in %s", bytes.TrimSpace(b))
	}
	return doc.Job, nil
}

func httpPost(ctx context.Context, url, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}

// get fetches url and returns its body, requiring 200 OK.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func getJSON(ctx context.Context, url string, into any) error {
	b, err := get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}
