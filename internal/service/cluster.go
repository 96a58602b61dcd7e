package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hgpart/internal/chaos"
)

// ClusterConfig configures coordinator mode: the node routes jobs to a
// fleet of hgserved workers instead of computing them itself. The zero
// value (no workers) disables clustering.
type ClusterConfig struct {
	// Workers lists worker base addresses ("host:port"). Non-empty enables
	// coordinator mode.
	Workers []string
	// Replicas is the consistent-hash virtual-replica count per worker;
	// <= 0 means 64.
	Replicas int
	// HeartbeatInterval is how often each worker's readiness is probed;
	// <= 0 means 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one probe; <= 0 means 1s.
	HeartbeatTimeout time.Duration
	// FailThreshold is how many consecutive probe failures trip a worker's
	// circuit breaker open; <= 0 means 2. Recovery is deterministic and
	// probe-driven: the first heartbeat success half-opens the breaker
	// (trial dispatches resume), the second closes it.
	FailThreshold int
	// DispatchPerWorker is the number of concurrent dispatches per worker
	// (match the workers' own pool size to keep them saturated without
	// queue buildup); <= 0 means 2.
	DispatchPerWorker int
	// QueuePerWorker bounds each worker's coordinator-side dispatch queue;
	// new submissions beyond every healthy worker's bound are shed with 503
	// + Retry-After. <= 0 means 64.
	QueuePerWorker int
	// DispatchRetries bounds chaos.Retry attempts per dispatch RPC before
	// the worker is declared dead and the job fails over; <= 0 means 3.
	DispatchRetries int
	// RetrySeed seeds the deterministic dispatch-retry jitter streams.
	RetrySeed uint64
	// DispatchDeadline bounds each dispatch RPC attempt end-to-end and is
	// propagated to the worker as an absolute X-Hg-Deadline header, so a
	// worker whose coordinator has failed over abandons the job (its journal
	// keeps the completed starts for the redispatch). <= 0 disables both the
	// bound and the header — a blackholed dispatch then waits until the
	// coordinator shuts down.
	DispatchDeadline time.Duration
}

func (c *ClusterConfig) withDefaults() ClusterConfig {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = 64
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 500 * time.Millisecond
	}
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = time.Second
	}
	if out.FailThreshold <= 0 {
		out.FailThreshold = 2
	}
	if out.DispatchPerWorker <= 0 {
		out.DispatchPerWorker = 2
	}
	if out.QueuePerWorker <= 0 {
		out.QueuePerWorker = 64
	}
	if out.DispatchRetries <= 0 {
		out.DispatchRetries = 3
	}
	return out
}

// errClusterBusy sheds a submission when every healthy worker's dispatch
// queue is full (HTTP 503 + Retry-After at the handler).
var errClusterBusy = fmt.Errorf("cluster dispatch queues are full; retry later")

// breakerState is one worker's deterministic circuit-breaker position. All
// transitions are event-driven — consecutive-failure counts and heartbeat
// successes, never timers or randomness — so a replayed fault schedule
// walks the breaker through an identical state sequence.
//
//	closed --(FailThreshold consecutive probe fails, or a dispatch
//	          failover)--> open
//	open --(one probe success)--> half-open     (trial dispatches resume)
//	half-open --(one probe success)--> closed
//	half-open --(any probe fail or dispatch failover)--> open
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// String renders the GET /v1/cluster form of the state.
func (b breakerState) String() string {
	switch b {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	}
	return fmt.Sprintf("breaker(%d)", b)
}

// workerHealth is the coordinator's view of one worker node. Its fields are
// guarded by the owning Coordinator's mu (it lives only in the health map).
type workerHealth struct {
	addr      string
	breaker   breakerState
	fails     int // consecutive probe failures
	lastErr   string
	lastProbe time.Time
}

// dispatchable reports whether the worker may receive jobs: closed breakers
// take normal traffic, half-open ones take trial traffic, open ones none.
func (h *workerHealth) dispatchable() bool { return h.breaker != breakerOpen }

// Coordinator routes partition jobs across a worker fleet by consistent
// hashing on the content-addressed cache key. Determinism makes this
// trivially safe: any worker produces byte-identical bytes for a key, so
// routing, stealing and failover are pure placement decisions.
//
// Robustness model:
//   - every dispatch RPC runs under chaos.Retry (seeded jitter, Retry-After
//     aware), so transient worker 503s/429s and connection blips are ridden
//     out without failing the job;
//   - every worker response is verified against its sha256 integrity
//     envelope before the bytes are cached or served — a corrupted response
//     is a retryable failure, never a poisoned cache entry;
//   - a per-worker circuit breaker (see breakerState) opens after
//     FailThreshold consecutive heartbeat failures or a dispatch failover
//     and recovers through half-open deterministically, probe by probe;
//   - with DispatchDeadline set, each dispatch attempt carries an absolute
//     X-Hg-Deadline the worker honors, so jobs whose coordinator has moved
//     on are abandoned (journal retained) instead of computed for no one;
//   - when a worker dies mid-job (retries exhausted on a transport error)
//     the job fails over to the next healthy node in ring order, which
//     resumes from the job's v2 CRC checkpoint journal on the shared
//     checkpoint directory — completed starts are never recomputed and the
//     final report stays byte-identical;
//   - idle workers steal queued jobs from the longest sibling queue, so one
//     hot shard cannot starve the fleet;
//   - with NO healthy workers the coordinator degrades to single-node mode:
//     jobs run on its own local Manager instead of erroring, and only a
//     genuinely full system sheds load (503 + Retry-After).
//
// The Coordinator owns no jobs: every job lives in the Manager's registry,
// and dispatch, failover and local fallback are execution choices for that
// one Job. Lock order is Manager.mu, then Coordinator.mu, then Job.mu, so a
// job the fleet cannot take is handed to the Manager after c.mu is released.
type Coordinator struct {
	cfg    ClusterConfig
	m      *Manager
	ring   *Ring
	client *http.Client
	log    *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	health map[string]*workerHealth //hglint:guardedby mu
	queues map[string][]*Job        //hglint:guardedby mu
	closed bool                     //hglint:guardedby mu

	wg sync.WaitGroup
}

// maxDispatchesPerJob bounds how many times one job may be (re)routed before
// the coordinator stops trusting the fleet and computes it locally.
func (c *Coordinator) maxDispatchesPerJob() int { return 2*len(c.ring.Nodes()) + 1 }

// newCoordinator builds the coordinator and starts its dispatchers and
// heartbeat probers. Workers start optimistically healthy: a dead node is
// discovered by the first dispatch or probe, whichever comes first.
func newCoordinator(cfg ClusterConfig, m *Manager) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		m:      m,
		ring:   NewRing(cfg.Workers, cfg.Replicas),
		client: &http.Client{Transport: m.cfg.Transport},
		log:    m.log,
		health: make(map[string]*workerHealth),
		queues: make(map[string][]*Job),
	}
	c.cond = sync.NewCond(&c.mu)
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	// Publish every worker's health entry before the first goroutine spawns:
	// a dispatcher started for worker 1 reads c.health under c.mu right away,
	// so interleaving these unlocked map writes with the spawns would race.
	for _, addr := range c.ring.Nodes() {
		c.health[addr] = &workerHealth{addr: addr, breaker: breakerClosed}
	}
	for _, addr := range c.ring.Nodes() {
		for i := 0; i < cfg.DispatchPerWorker; i++ {
			c.wg.Add(1)
			go c.dispatchLoop(addr)
		}
		c.wg.Add(1)
		go c.prober(addr)
	}
	return c
}

// Close stops routing: jobs still in a dispatch queue are cancelled like
// queued Manager jobs (503), in-flight dispatches are interrupted through
// their job contexts, dispatchers and probers exit. The Manager calls it
// from Drain and Close once it has stopped taking submissions.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var queued []*Job
	for _, addr := range c.ring.Nodes() { // sorted, so drain order is deterministic
		queued = append(queued, c.queues[addr]...)
		c.queues[addr] = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, j := range queued {
		c.m.cancelQueued(j, http.StatusServiceUnavailable, drainQueuedMsg)
	}
	c.baseCancel()
	c.wg.Wait()
}

// route places a new job on the dispatch queue of the first dispatchable
// worker in ring order with queue room. It reports local = true when no
// worker is dispatchable — the caller then runs the job on its own pool —
// and errClusterBusy when every dispatchable worker's queue is full.
// Called by Manager.Submit with the Manager's lock held.
func (c *Coordinator) route(j *Job) (local bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, errDraining
	}
	anyHealthy := false
	for _, addr := range c.ring.Order(j.Key) {
		if !c.health[addr].dispatchable() {
			continue
		}
		anyHealthy = true
		if len(c.queues[addr]) < c.cfg.QueuePerWorker {
			c.queues[addr] = append(c.queues[addr], j)
			c.cond.Broadcast()
			return false, nil
		}
	}
	if anyHealthy {
		return false, errClusterBusy
	}
	return true, nil
}

// dispatchLoop is one dispatcher slot for worker `home`: it pops the home
// queue, or — when home is idle — steals the oldest job from the longest
// sibling queue, then dispatches to home. Stolen work runs on home, which
// is the whole point: the idle node absorbs the imbalance.
func (c *Coordinator) dispatchLoop(home string) {
	defer c.wg.Done()
	for {
		j, ctx, cancel := c.next(home)
		if j == nil {
			return
		}
		c.dispatch(ctx, home, j)
		cancel()
	}
}

// next blocks until home has work (own queue, or a steal) or the
// coordinator closes (nil). Jobs cancelled while queued are skipped, the
// way Manager.worker skips them.
func (c *Coordinator) next(home string) (*Job, context.Context, context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, nil, nil
		}
		if !c.health[home].dispatchable() {
			c.cond.Wait()
			continue
		}
		from := home
		if len(c.queues[home]) == 0 {
			// Steal from the longest sibling queue, oldest job first (it has
			// waited longest). Ties break by ring node order, deterministically.
			from = ""
			bestLen := 0
			for _, addr := range c.ring.Nodes() {
				if l := len(c.queues[addr]); addr != home && l > bestLen {
					from, bestLen = addr, l
				}
			}
		}
		if from == "" {
			c.cond.Wait()
			continue
		}
		j := c.queues[from][0]
		c.queues[from] = c.queues[from][1:]
		ctx, cancel, ok := c.claim(j, home)
		if !ok {
			continue
		}
		if from != home {
			c.m.metrics.ClusterSteal()
			c.log.Info("cluster: stole queued job", "job", j.ID, "from", from, "to", home)
		}
		return j, ctx, cancel
	}
}

// claim moves a popped job to running on worker under a per-job context
// derived from baseCtx, so Manager.Cancel stops the dispatch and a drain
// interrupts it. A job no longer queued is refused.
func (c *Coordinator) claim(j *Job, worker string) (context.Context, context.CancelFunc, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return nil, nil, false
	}
	ctx, cancel := context.WithCancel(c.baseCtx)
	j.state = JobRunning
	j.worker = worker
	j.cancel = cancel
	if j.started.IsZero() {
		j.started = time.Now()
	}
	return ctx, cancel, true
}

// dispatch POSTs the job to worker synchronously under chaos.Retry. A 200
// that passes the integrity envelope finishes the job with the worker's
// report bytes; a corrupted or oversized response is retried like a
// transport error; a non-retryable HTTP error forwards the worker's
// verdict; a cancelled job context (DELETE or drain) settles the job as
// cancelled without blaming the worker; exhausted retries mean the worker
// is dead — trip its breaker and fail the job over.
func (c *Coordinator) dispatch(ctx context.Context, worker string, j *Job) {
	c.m.metrics.ClusterDispatch()
	j.mu.Lock()
	attempt := j.requeues + 1
	j.mu.Unlock()
	forwardReq := j.req
	forwardReq.Async = false // the coordinator itself waits on the worker
	forward, err := json.Marshal(&forwardReq)
	if err != nil {
		c.m.fail(j, http.StatusInternalServerError, err.Error())
		return
	}

	var (
		body      []byte
		remoteJob string
		permCode  int
		permMsg   string
	)
	retry := chaos.Retry{
		MaxAttempts: c.cfg.DispatchRetries,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Seed:        c.cfg.RetrySeed ^ ringHash(j.Key) ^ uint64(attempt),
	}
	err = retry.Do(ctx, func() (time.Duration, bool, error) {
		// Each attempt gets a fresh deadline: a retry after a worker 504 must
		// grant the redispatch its full budget, not the stale remainder.
		rpcCtx := ctx
		cancel := context.CancelFunc(func() {})
		deadline := ""
		if c.cfg.DispatchDeadline > 0 {
			dl := time.Now().Add(c.cfg.DispatchDeadline)
			rpcCtx, cancel = context.WithDeadline(ctx, dl)
			deadline = strconv.FormatInt(dl.UnixMilli(), 10)
		}
		defer cancel()
		req, rerr := http.NewRequestWithContext(rpcCtx, http.MethodPost,
			"http://"+worker+"/v1/partition", bytes.NewReader(forward))
		if rerr != nil {
			return 0, false, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline != "" {
			req.Header.Set(deadlineHeader, deadline)
		}
		resp, rerr := c.client.Do(req)
		if rerr != nil {
			return 0, true, rerr
		}
		defer resp.Body.Close()
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
		if rerr != nil {
			return 0, true, rerr
		}
		if int64(len(b)) > maxPeerBody {
			return 0, true, fmt.Errorf("worker %s: response exceeds the %d-byte body bound", worker, int64(maxPeerBody))
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if !integrityOK(resp.Header, b) {
				// Corrupted in transit. The bytes must not reach the cache or
				// a client; retrying (and eventually failing over) recomputes.
				c.m.metrics.IntegrityFailure("dispatch")
				c.log.Warn("cluster: dispatch response failed the sha256 envelope; recomputing",
					"job", j.ID, "worker", worker)
				return 0, true, fmt.Errorf("worker %s: response body failed the sha256 integrity check", worker)
			}
			body = b
			remoteJob = resp.Header.Get("X-Hgserved-Job")
			return 0, false, nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			ra, _ := chaos.RetryAfterHeader(resp.Header.Get("Retry-After"))
			return ra, true, fmt.Errorf("worker %s: HTTP %d", worker, resp.StatusCode)
		case http.StatusGatewayTimeout:
			// The worker abandoned on our own propagated deadline; the journal
			// kept its completed starts, so redispatching is cheap.
			return 0, true, fmt.Errorf("worker %s: abandoned on the propagated deadline (HTTP 504)", worker)
		default:
			// The worker judged the request itself bad; no other worker would
			// disagree. Forward its verdict instead of failing over.
			permCode = resp.StatusCode
			permMsg = errorMessage(b, fmt.Sprintf("worker %s: HTTP %d", worker, resp.StatusCode))
			return 0, false, fmt.Errorf("worker %s: HTTP %d", worker, resp.StatusCode)
		}
	})
	switch {
	case err == nil:
		c.m.cache.Put(j.Key, body)
		c.m.removeInflight(j.Key)
		j.mu.Lock()
		j.remoteJob = remoteJob
		j.mu.Unlock()
		c.m.settle(j, JobDone, http.StatusOK, body, "")
	case permCode != 0:
		c.m.fail(j, permCode, permMsg)
	case ctx.Err() != nil:
		// A DELETE or a drain stopped the job, not a dead worker: no
		// failover, and no breaker trip for a healthy node.
		c.m.cancelled(j, 0, "")
	default:
		c.failover(worker, j, err)
	}
}

// errorMessage extracts the "error" field from a JSON error document,
// falling back to fallback.
func errorMessage(body []byte, fallback string) string {
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return fallback
}

// failover reacts to a dead worker: trip its breaker open (draining its
// queue onto survivors) and reroute this job to the next dispatchable node
// in ring order — or compute locally when none remains.
func (c *Coordinator) failover(worker string, j *Job, cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.m.cancelled(j, 0, "")
		return
	}
	c.m.metrics.ClusterFailover()
	c.log.Warn("cluster: dispatch failed; failing job over", "job", j.ID, "worker", worker, "err", cause)
	local := c.tripBreakerLocked(worker, cause)
	if c.rerouteLocked(j) {
		local = append(local, j)
	}
	c.mu.Unlock()
	c.m.fallBack(local...)
}

// rerouteLocked sends an admitted job back through routing after a failover
// or an unhealthy-queue drain, counting one requeue: the next dispatchable
// worker in ring order, ignoring queue bounds (the job was already admitted
// — failover must not shed it). It reports true when the job must fall back
// to local compute instead, because the fleet is gone or the job has
// bounced too often; the caller hands it to the Manager once c.mu is
// released. A job cancelled while queued is dropped.
func (c *Coordinator) rerouteLocked(j *Job) (local bool) {
	j.mu.Lock()
	if j.state != JobQueued && j.state != JobRunning {
		j.mu.Unlock()
		return false
	}
	j.state = JobQueued
	j.cancel = nil
	j.requeues++
	bounced := j.requeues >= c.maxDispatchesPerJob()
	j.mu.Unlock()
	if bounced {
		c.log.Warn("cluster: job exceeded the dispatch bound", "job", j.ID)
		return true
	}
	for _, addr := range c.ring.Order(j.Key) {
		if c.health[addr].dispatchable() {
			c.queues[addr] = append(c.queues[addr], j)
			c.cond.Broadcast()
			return false
		}
	}
	return true
}

// prober is one worker's heartbeat loop.
func (c *Coordinator) prober(addr string) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
		}
		c.noteProbe(addr, c.probe(addr))
	}
}

// probe asks one worker for readiness, bounded by HeartbeatTimeout.
func (c *Coordinator) probe(addr string) error {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// noteProbe folds one heartbeat result into the worker's breaker. Success
// walks open → half-open → closed one probe at a time; a failure trips a
// half-open breaker straight back open, and FailThreshold consecutive
// failures trip a closed one (its queued jobs reroute immediately). All
// transitions are counter-driven — no wall-clock cooldowns — so a replayed
// probe sequence reproduces the exact breaker history.
func (c *Coordinator) noteProbe(addr string, probeErr error) {
	c.mu.Lock()
	h := c.health[addr]
	h.lastProbe = time.Now()
	if probeErr == nil {
		h.fails = 0
		switch h.breaker {
		case breakerOpen:
			h.breaker = breakerHalfOpen
			c.log.Info("cluster: worker half-open; trial dispatches resume", "worker", addr)
			c.cond.Broadcast()
		case breakerHalfOpen:
			h.breaker = breakerClosed
			h.lastErr = ""
			c.log.Info("cluster: worker recovered", "worker", addr)
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		return
	}
	h.fails++
	h.lastErr = probeErr.Error()
	var local []*Job
	switch {
	case h.breaker == breakerHalfOpen:
		local = c.tripBreakerLocked(addr, fmt.Errorf("heartbeat failed during half-open trial: %w", probeErr))
	case h.breaker == breakerClosed && h.fails >= c.cfg.FailThreshold:
		local = c.tripBreakerLocked(addr, fmt.Errorf("heartbeat: %d consecutive failures: %w", h.fails, probeErr))
	}
	c.mu.Unlock()
	c.m.fallBack(local...)
}

// tripBreakerLocked opens a worker's breaker (from closed or half-open),
// taking it out of rotation and rerouting its queued jobs. It returns the
// jobs that must fall back to local compute, for the caller to hand to the
// Manager once c.mu is released. Called with c.mu held.
func (c *Coordinator) tripBreakerLocked(addr string, cause error) (local []*Job) {
	h := c.health[addr]
	h.lastErr = cause.Error()
	if h.breaker == breakerOpen {
		return nil
	}
	h.breaker = breakerOpen
	c.log.Warn("cluster: breaker open; worker out of rotation", "worker", addr, "err", cause)
	q := c.queues[addr]
	c.queues[addr] = nil
	for _, j := range q {
		if c.rerouteLocked(j) {
			local = append(local, j)
		}
	}
	c.cond.Broadcast()
	return local
}

// WorkerStatus is one row of the GET /v1/cluster document. Healthy means
// dispatchable (breaker closed or half-open); Breaker exposes the exact
// breaker position.
type WorkerStatus struct {
	Addr             string `json:"addr"`
	Healthy          bool   `json:"healthy"`
	Breaker          string `json:"breaker"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	QueueDepth       int    `json:"queue_depth"`
	LastError        string `json:"last_error,omitempty"`
}

// ClusterStatus is the GET /v1/cluster document.
type ClusterStatus struct {
	Mode           string         `json:"mode"`
	Workers        []WorkerStatus `json:"workers,omitempty"`
	Healthy        int            `json:"healthy"`
	Steals         int64          `json:"steals"`
	Failovers      int64          `json:"failovers"`
	LocalFallbacks int64          `json:"local_fallbacks"`
	Jobs           int            `json:"jobs"`
}

// Status snapshots the cluster view. Its counters are the /metrics
// registry's, so both surfaces report one number.
func (c *Coordinator) Status() ClusterStatus {
	m := c.m.metrics
	st := ClusterStatus{
		Mode:           "coordinator",
		Steals:         m.steals.get(),
		Failovers:      m.failovers.get(),
		LocalFallbacks: m.localFallbacks.get(),
		Jobs:           len(c.m.Jobs()),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, addr := range c.ring.Nodes() {
		h := c.health[addr]
		st.Workers = append(st.Workers, WorkerStatus{
			Addr:             addr,
			Healthy:          h.dispatchable(),
			Breaker:          h.breaker.String(),
			ConsecutiveFails: h.fails,
			QueueDepth:       len(c.queues[addr]),
			LastError:        h.lastErr,
		})
		if h.dispatchable() {
			st.Healthy++
		}
	}
	return st
}

// healthyCount returns the number of currently dispatchable workers
// (metrics).
func (c *Coordinator) healthyCount() (healthy, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.health {
		if h.dispatchable() {
			healthy++
		}
	}
	return healthy, len(c.health)
}

// breakerStates snapshots each worker's breaker position for the
// hgserved_breaker_state gauge.
func (c *Coordinator) breakerStates() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.health))
	for addr, h := range c.health {
		out[addr] = int(h.breaker)
	}
	return out
}
