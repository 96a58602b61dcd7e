package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hgpart/internal/gen"
	"hgpart/internal/netlist"
	"hgpart/internal/rng"
	"hgpart/internal/service"
)

// The serving workloads send requests to hgserved daemons the benchmark
// builds and launches itself. The load generator is this one process with
// at most two HTTP connections open.
const (
	hitRate     = 100 // serve-hit open-loop arrivals per second
	missShare   = 0.3 // share of serve-mixed requests that carry a fresh seed
	clients     = 2   // HTTP connections of the load generator
	replayReps  = 20  // in-process front-end replays per hot instance
	jobHistory  = 64  // terminal jobs each daemon retains
	sampleEvery = 250 * time.Millisecond
)

// hotSpecs is the serve workloads' working set: four quarter-scale
// ibm01-like instances (weighted, with macros) and prim2-, ind1-, struct-
// and bio-like unit-area ones.
func hotSpecs() []gen.Spec {
	ibm := gen.Scaled(gen.MustIBMProfile(1), 0.25)
	return []gen.Spec{ibm, ibm, ibm, ibm, mustMCNC("prim2"), mustMCNC("ind1"), mustMCNC("struct"), mustMCNC("bio")}
}

// hotEntry is one hot-set instance with its inline-hgr request body.
type hotEntry struct {
	*instance
	seed uint64 // the partition seed of the hot request
	head []byte // the request body up to the seed value
	// Set by the warm-up request.
	first []byte // the report every later hit must repeat byte for byte
	hash  string // the instance_hash of every report for this instance
	key   string // the cache key, for the in-process cache replay
}

func (e *hotEntry) body(seed uint64) []byte {
	b := append([]byte(nil), e.head...)
	return append(strconv.AppendUint(b, seed, 10), '}')
}

func (e *hotEntry) expect(disposition string, seed uint64) expectation {
	x := expectation{disposition: disposition, seed: seed, hash: e.hash, total: e.h.TotalVertexWeight(), bal: e.bal}
	if disposition == "hit" {
		x.first = e.first
	}
	return x
}

// hotSet generates the hot set and its request bodies.
func (b *bench) hotSet(refineThreads int) ([]*hotEntry, error) {
	seeds := rng.New(b.seed)
	var hot []*hotEntry
	for i, spec := range hotSpecs() {
		inst, err := b.makeInstance(spec, seeds.Uint64())
		if err != nil {
			return nil, err
		}
		hgr, err := json.Marshal(inst.hgr)
		if err != nil {
			return nil, err
		}
		head := fmt.Sprintf(`{"hgr":%s,"label":"hot%d",`, hgr, i)
		if refineThreads > 0 {
			head += fmt.Sprintf(`"refine_threads":%d,`, refineThreads)
		}
		hot = append(hot, &hotEntry{instance: inst, seed: 1 + seeds.Uint64n(1<<40), head: []byte(head + `"seed":`)})
	}
	return hot, nil
}

// daemon is one running hgserved process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{}
}

// startDaemon launches hgserved on an ephemeral loopback port with its
// state and log in dir, and returns once /readyz answers 200.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	// Every retained job keeps its netlist. A short job history lets
	// serve-mixed's memory plateau early in a run instead of growing with
	// the number of misses a run happens to complete.
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-job-history", strconv.Itoa(jobHistory)}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if d.addr == "" {
			if a, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(a)) > 0 {
				d.addr = string(bytes.TrimSpace(a))
			}
		}
		if d.addr != "" {
			if r, err := http.Get("http://" + d.addr + "/readyz"); err == nil {
				r.Body.Close()
				if r.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, fmt.Errorf("hgserved exited before it was ready (log: %s)", logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("hgserved not ready after 15s (log: %s)", logf.Name())
		}
	}
}

// stop sends SIGTERM, kills the daemon if it has not drained within 15s,
// and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// cluster is the set of running daemons of one serve run. all[0] receives
// every request; compute lists the nodes whose job queues partition.
type cluster struct {
	all     []*daemon
	compute []*daemon
}

func (c *cluster) stop() {
	for _, d := range c.all {
		d.stop()
	}
}

func (c *cluster) peakRSSMB() (float64, error) {
	var peak float64
	for _, d := range c.all {
		mb, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// launch starts serve-hit's single node or serve-mixed's coordinator with
// two workers (journaling to a shared checkpoint directory, no peering).
func launch(bin, dir string, mixed bool) (*cluster, error) {
	if !mixed {
		d, err := startDaemon(bin, filepath.Join(dir, "node"))
		if err != nil {
			return nil, err
		}
		return &cluster{all: []*daemon{d}, compute: []*daemon{d}}, nil
	}
	c := &cluster{}
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(bin, filepath.Join(dir, fmt.Sprintf("worker%d", i)), "-checkpoint-dir", filepath.Join(dir, "cp"))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.compute = append(c.compute, d)
		addrs = append(addrs, d.addr)
	}
	coord, err := startDaemon(bin, filepath.Join(dir, "coordinator"), "-cluster-workers", strings.Join(addrs, ","))
	if err != nil {
		c.all = c.compute
		c.stop()
		return nil, err
	}
	c.all = append([]*daemon{coord}, c.compute...)
	return c, nil
}

// buildHgserved builds cmd/hgserved from the checkout into work/bin.
func buildHgserved(root, work string, log io.Writer) (string, error) {
	bin := filepath.Join(work, "bin", "hgserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hgserved")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build hgserved: %w", err)
	}
	return bin, nil
}

// served is a launched and warmed serve set-up.
type served struct {
	cl     *cluster
	hot    []*hotEntry
	client *http.Client // the load generator's, capped at two connections
	probe  *http.Client // for /metrics, outside the load generator's cap
	url    string
	dir    string
}

// setUpServing builds hgserved, then setupReps times generates the hot
// set, launches the daemons, and warms every hot request so each later
// repeat is a cache hit.
func (b *bench) setUpServing(mixed bool) (*served, error) {
	bin, err := buildHgserved(b.root, b.work, b.log)
	if err != nil {
		return nil, err
	}
	s := &served{
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		probe:  &http.Client{Timeout: 10 * time.Second},
		dir:    filepath.Join(b.work, "run", fmt.Sprintf("%s-%d", b.workload, os.Getpid())),
	}
	refineThreads := 0
	if mixed {
		refineThreads = 2
	}
	rep := 0
	err = b.timeSetup(func() error {
		rep++
		hot, err := b.hotSet(refineThreads)
		if err != nil {
			return err
		}
		if s.cl, err = launch(bin, filepath.Join(s.dir, strconv.Itoa(rep)), mixed); err != nil {
			return err
		}
		s.hot, s.url = hot, "http://"+s.cl.all[0].addr+"/v1/partition"
		return s.warm()
	}, func() {
		s.cl.stop()
		s.cl = nil
	})
	for i := 0; err == nil && i < len(s.cl.all); i++ {
		err = resetPeakRSS(strconv.Itoa(s.cl.all[i].cmd.Process.Pid))
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm computes every hot request once and keeps its report.
func (s *served) warm() error {
	for i, e := range s.hot {
		code, disp, body, err := post(s.client, s.url, e.body(e.seed))
		if err == nil {
			var rep servedReport
			rep, err = checkServed(code, disp, body, e.expect("miss", e.seed))
			e.first, e.hash, e.key = body, rep.InstanceHash, rep.CacheKey
		}
		if err != nil {
			return fmt.Errorf("warm hot%d: %w", i, err)
		}
	}
	return nil
}

func (s *served) close() {
	if s.cl != nil {
		s.cl.stop()
	}
	os.RemoveAll(s.dir)
}

func post(c *http.Client, url string, body []byte) (code int, disposition string, resp []byte, err error) {
	r, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Hgserved-Cache"), resp, err
}

// reqSample is one measured request.
type reqSample struct {
	done   bool
	lat    float64 // ms from the request's due time to the full response
	svc    float64 // ms from sending to the full response
	late   float64 // ms the generator sent after the due time
	traced bool
	cut    int64
	err    error
}

// request sends one request due at due, traces every other one in a traced
// run, and checks the response.
func (s *served) request(b *bench, op int, due time.Time, body []byte, want expectation) reqSample {
	sent := time.Now()
	id := -1
	if b.rec != nil && op%2 == 1 {
		id = b.rec.begin("service.request", op, -1)
	}
	code, disp, resp, err := post(s.client, s.url, body)
	b.rec.end(id)
	done := time.Now()
	x := reqSample{done: true, lat: ms(done.Sub(due)), svc: ms(done.Sub(sent)), late: ms(sent.Sub(due)), traced: id >= 0, err: err}
	if err == nil {
		var rep servedReport
		rep, x.err = checkServed(code, disp, resp, want)
		x.cut = rep.Cut
	}
	return x
}

// scrape reads a node's /metrics: each series under its full name, and
// the sum of a metric's labelled series under its bare name.
func scrape(c *http.Client, addr string) (map[string]float64, error) {
	r, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		m[f[0]] = v
		if i := strings.IndexByte(f[0], '{'); i >= 0 {
			m[f[0][:i]] += v
		}
	}
	return m, sc.Err()
}

// snapshot scrapes every node.
func (s *served) snapshot() (map[*daemon]map[string]float64, error) {
	out := map[*daemon]map[string]float64{}
	for _, d := range s.cl.all {
		m, err := scrape(s.probe, d.addr)
		if err != nil {
			return nil, err
		}
		out[d] = m
	}
	return out, nil
}

// probe watches the daemons during a traced run's measured loop: a
// /metrics snapshot before it, and the compute nodes' summed job-queue depth
// every sampleEvery until stop.
type probe struct {
	before map[*daemon]map[string]float64
	quit   chan struct{}
	wg     sync.WaitGroup
	depths []float64
}

func (s *served) startProbe() (*probe, error) {
	before, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	p := &probe{before: before, quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
			var d float64
			for _, n := range s.cl.compute {
				if m, err := scrape(s.probe, n.addr); err == nil {
					d += m["hgserved_queue_depth"]
				}
			}
			p.depths = append(p.depths, d)
		}
	}()
	return p, nil
}

// stop ends the sampling and returns the mean queue depth.
func (p *probe) stop() float64 {
	close(p.quit)
	p.wg.Wait()
	return mean(p.depths)
}

// replayFrontend times in process, on the hot bodies, the steps of a hit
// that have public entry points: decoding the body into
// service.PartitionRequest, parsing its netlist, and a result-cache lookup.
// It returns each hot entry's median total of the three, in ms.
func (b *bench) replayFrontend(hot []*hotEntry) ([]float64, error) {
	cache := service.NewCache(4096, 64<<20)
	for _, e := range hot {
		cache.Put(e.key, e.first)
	}
	per := make([]float64, len(hot))
	for j, e := range hot {
		body := e.body(e.seed)
		var ts []float64
		for r := 0; r < replayReps; r++ {
			t0 := time.Now()
			id := b.rec.begin("service.Decode", -1, -1)
			var req service.PartitionRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err := dec.Decode(&req)
			b.rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			id = b.rec.begin("netlist.ParseHGR", -1, -1)
			_, err = netlist.ParseHGR(strings.NewReader(req.HGR), req.Label)
			b.rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay parse: %w", err)
			}
			id = b.rec.begin("service.Cache.Get", -1, -1)
			_, ok := cache.Get(e.key)
			b.rec.end(id)
			if !ok {
				return nil, fmt.Errorf("replay cache lookup of hot%d missed", j)
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		per[j] = quantile(ts, 0.5)
	}
	return per, nil
}

// serviceLayerMetrics sets the per-layer metrics both serve workloads
// derive from /metrics (deltas over the measured loop) and from the
// front-end replay, and returns the replay's per-hot-entry front-end cost.
func (b *bench) serviceLayerMetrics(s *served, p *probe, misses int) ([]float64, error) {
	queueMean := p.stop()
	after, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	front, err := b.replayFrontend(s.hot)
	if err != nil {
		return nil, err
	}
	d := func(n *daemon, name string) float64 { return after[n][name] - p.before[n][name] }
	var integrity, nsPerWork float64
	for _, n := range s.cl.all {
		integrity += d(n, "hgserved_integrity_failures_total")
	}
	for _, n := range s.cl.compute {
		nsPerWork += after[n][`hgserved_ns_per_work_unit{quantile="0.5"}`] / float64(len(s.cl.compute))
	}
	entry := s.cl.all[0]
	hits, coalesced := d(entry, "hgserved_cache_hits_total"), d(entry, "hgserved_cache_coalesced_total")
	spans := b.rec.snapshot()
	m := b.metrics
	m["service.decode_ms_p50"] = quantile(durations(spans, "service.Decode"), 0.5)
	m["service.cache_get_us_p50"] = 1000 * quantile(durations(spans, "service.Cache.Get"), 0.5)
	m["service.queue_depth_mean"] = queueMean
	m["service.ns_per_work_unit_p50"] = nsPerWork
	m["service.cache_hit_ratio"] = hits / (hits + d(entry, "hgserved_cache_misses_total") + coalesced)
	m["service.coalesced"] = coalesced
	m["service.failovers"] = d(entry, "hgserved_cluster_failovers_total")
	m["service.local_fallbacks"] = d(entry, "hgserved_cluster_local_fallbacks_total")
	m["service.integrity_failures"] = integrity
	if misses > 0 {
		m["service.dispatches_per_miss"] = d(entry, "hgserved_cluster_dispatches_total") / float64(misses)
	}
	if m["service.failovers"]+m["service.local_fallbacks"]+integrity > 0 {
		fmt.Fprintf(b.log, "e2e: %s: fault counters moved during the run (failovers %g, local fallbacks %g, integrity failures %g)\n",
			b.workload, m["service.failovers"], m["service.local_fallbacks"], integrity)
	}
	return front, nil
}

// overheadPct compares the traced and untraced samples' median latency.
func overheadPct(xs []reqSample) float64 {
	var on, off []float64
	for _, x := range xs {
		if x.traced {
			on = append(on, x.lat)
		} else {
			off = append(off, x.lat)
		}
	}
	return 100 * (quantile(on, 0.5)/quantile(off, 0.5) - 1)
}

// serveHit: an open loop of hitRate requests per second, each a repeat of
// a hot-set request and so a cache hit. It isolates the request front end
// (JSON decode, netlist parse, instance hash, cache lookup, write); the
// partitioning layers do no work.
func serveHit(b *bench) error {
	s, err := b.setUpServing(false)
	if err != nil {
		return err
	}
	defer s.close()

	n := max(minOps, int(hitRate*b.seconds))
	picks := rng.New(b.seed ^ 0x4849)
	entry := make([]int, n)
	for i := range entry {
		entry[i] = picks.Intn(len(s.hot))
	}
	var p *probe
	if b.rec != nil {
		if p, err = s.startProbe(); err != nil {
			return err
		}
	}

	samples := make([]reqSample, n)
	interval := time.Second / hitRate
	start := time.Now().Add(10 * time.Millisecond)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := s.hot[entry[i]]
				samples[i] = s.request(b, i, start.Add(time.Duration(i)*interval), e.body(e.seed), e.expect("hit", e.seed))
			}
		}()
	}
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	var lat, late, cuts []float64
	var ok []reqSample
	for i, x := range samples {
		b.attempted++
		if x.err != nil {
			b.fail(i, x.err)
			continue
		}
		ok = append(ok, x)
		lat, late, cuts = append(lat, x.lat), append(late, x.late), append(cuts, float64(x.cut))
	}
	if err := b.servedMetrics(s, lat, cuts, elapsed); err != nil {
		return err
	}
	if b.rec == nil {
		return nil
	}
	front, err := b.serviceLayerMetrics(s, p, 0)
	if err != nil {
		return err
	}
	b.layerMetrics(b.rec.snapshot())
	var self []float64
	for i, x := range samples {
		if x.err == nil {
			self = append(self, x.svc-front[entry[i]])
		}
	}
	m := b.metrics
	m["service.hit_p50_ms"] = quantile(lat, 0.5)
	m["service.hit_p99_ms"] = quantile(lat, 0.99)
	m["service.frontend_self_ms_p50"] = quantile(self, 0.5)
	m["bench.send_late_ms_p99"] = quantile(late, 0.99)
	m["bench.trace_overhead_pct"] = overheadPct(ok)
	return nil
}

// servedMetrics sets the end-to-end metrics of a serve run.
func (b *bench) servedMetrics(s *served, lat, cuts []float64, elapsed time.Duration) error {
	rss, err := s.cl.peakRSSMB()
	if err != nil {
		return err
	}
	b.metrics["op_p50_ms"] = quantile(lat, 0.5)
	b.metrics["op_p90_ms"] = quantile(lat, 0.9)
	b.metrics["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	b.metrics["cut_mean"] = mean(cuts)
	b.metrics["peak_rss_mb"] = rss
	return nil
}

// planned is one serve-mixed request: a hot-set instance, and either the
// hot request's seed (a hit) or a fresh one (a miss).
type planned struct {
	entry int
	seed  uint64
	miss  bool
}

// serveMixed: two closed-loop clients against a coordinator with two
// workers. 70% of requests repeat a hot request (hits); 30% carry a fresh
// seed and miss, running the whole write path — dispatch RPC with its
// sha256 envelope, worker queue, harness with two start workers, multilevel
// starts and V-cycle, kwayfm.ParRefine, journal, and cache fills on two
// nodes — beside the reads.
func serveMixed(b *bench) error {
	s, err := b.setUpServing(true)
	if err != nil {
		return err
	}
	defer s.close()

	// More requests than a run can send: a hit takes at least a millisecond.
	plan := make([]planned, int(b.seconds*1000)+minOps)
	r := rng.New(b.seed ^ 0x4d49)
	for i := range plan {
		p := planned{entry: r.Intn(len(s.hot))}
		p.seed = s.hot[p.entry].seed
		if r.Float64() < missShare {
			p.miss, p.seed = true, 1+r.Uint64n(1<<40)
		}
		plan[i] = p
	}
	var p *probe
	if b.rec != nil {
		if p, err = s.startProbe(); err != nil {
			return err
		}
	}

	samples := make([]reqSample, len(plan))
	var next atomic.Int64
	deadline := b.deadline()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || (i >= minOps && !time.Now().Before(deadline)) {
					return
				}
				p, disp := plan[i], "hit"
				if p.miss {
					disp = "miss"
				}
				e := s.hot[p.entry]
				body := e.body(p.seed)
				samples[i] = s.request(b, i, time.Now(), body, e.expect(disp, p.seed))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat, hitLat, missLat, missCuts []float64
	var hits []reqSample
	for i, x := range samples {
		if !x.done {
			continue
		}
		b.attempted++
		if x.err != nil {
			b.fail(i, x.err)
			continue
		}
		lat = append(lat, x.lat)
		if plan[i].miss {
			missLat, missCuts = append(missLat, x.lat), append(missCuts, float64(x.cut))
		} else {
			hitLat, hits = append(hitLat, x.lat), append(hits, x)
		}
	}
	if err := b.servedMetrics(s, lat, missCuts, elapsed); err != nil {
		return err
	}
	if b.rec == nil {
		return nil
	}
	front, err := b.serviceLayerMetrics(s, p, len(missLat))
	if err != nil {
		return err
	}

	// Replay every served miss in process with the service's configuration:
	// its cut must equal the served one, and the miss latency left after the
	// replayed compute and two front ends (coordinator and worker) is the
	// dispatch path's own time.
	var dispatchSelf []float64
	for i, x := range samples {
		if !x.done || x.err != nil || !plan[i].miss {
			continue
		}
		e := s.hot[plan[i].entry]
		cut, d, err := timeSolve(e.instance, solveCfg{starts: 4, workers: 2, refineThreads: 2}, plan[i].seed,
			&opTrace{rec: b.rec, op: i, ml: &b.ml})
		switch {
		case err != nil:
			b.fail(i, fmt.Errorf("replay: %w", err))
		case cut != x.cut:
			b.fail(i, fmt.Errorf("served cut %d, in-process replay %d", x.cut, cut))
		default:
			dispatchSelf = append(dispatchSelf, x.svc-ms(d)-2*front[plan[i].entry])
		}
	}
	b.layerMetrics(b.rec.snapshot())
	var frontSelf []float64
	for i, x := range samples {
		if x.done && x.err == nil && !plan[i].miss {
			frontSelf = append(frontSelf, x.svc-front[plan[i].entry])
		}
	}
	m := b.metrics
	m["service.hit_p50_ms"] = quantile(hitLat, 0.5)
	m["service.hit_p99_ms"] = quantile(hitLat, 0.99)
	m["service.miss_p50_ms"] = quantile(missLat, 0.5)
	m["service.miss_p90_ms"] = quantile(missLat, 0.9)
	m["service.frontend_self_ms_p50"] = quantile(frontSelf, 0.5)
	m["service.dispatch_self_ms_p50"] = quantile(dispatchSelf, 0.5)
	m["bench.trace_overhead_pct"] = overheadPct(hits)
	return nil
}
