package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hgpart/internal/chaos"
	"hgpart/internal/hypergraph"
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

// clusterJob is one request the coordinator shepherds through the fleet. It
// mirrors Job's lifecycle (queued → running → terminal, singleflight by
// cache key, waiters select on done) but executes remotely — or locally,
// when the whole fleet is unreachable.
type clusterJob struct {
	ID  string
	Key string

	req      PartitionRequest
	inst     *hypergraph.Hypergraph
	instName string
	instHash string
	forward  []byte // marshaled request for dispatch (async stripped)

	mu    sync.Mutex
	state JobState //hglint:guardedby mu
	// worker is the current/last node executing this job ("local" = fallback).
	worker string //hglint:guardedby mu
	// remoteJob is the job id on the worker that produced the result.
	remoteJob string //hglint:guardedby mu
	// dispatches counts routing attempts (initial + failovers).
	dispatches int       //hglint:guardedby mu
	httpStatus int       //hglint:guardedby mu
	body       []byte    //hglint:guardedby mu
	errMsg     string    //hglint:guardedby mu
	enqueued   time.Time //hglint:guardedby mu
	started    time.Time //hglint:guardedby mu
	finished   time.Time //hglint:guardedby mu

	done chan struct{}
}

func (cj *clusterJob) markRunning(worker string) {
	cj.mu.Lock()
	cj.state = JobRunning
	cj.worker = worker
	if cj.started.IsZero() {
		cj.started = time.Now()
	}
	cj.mu.Unlock()
}

// finish moves the cluster job to a terminal state exactly once.
func (cj *clusterJob) finish(code int, body []byte, errMsg, remoteJob string) {
	cj.mu.Lock()
	if cj.state == JobDone || cj.state == JobFailed {
		cj.mu.Unlock()
		return
	}
	if code == http.StatusOK {
		cj.state = JobDone
	} else {
		cj.state = JobFailed
	}
	cj.httpStatus = code
	cj.body = body
	cj.errMsg = errMsg
	if remoteJob != "" {
		cj.remoteJob = remoteJob
	}
	cj.finished = time.Now()
	cj.mu.Unlock()
	close(cj.done)
}

// Done returns a channel closed when the job reaches a terminal state.
func (cj *clusterJob) Done() <-chan struct{} { return cj.done }

// Result returns the terminal HTTP status, report bytes and error message.
func (cj *clusterJob) Result() (int, []byte, string) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.httpStatus, cj.body, cj.errMsg
}

// Status renders the coordinator's job view; Worker/RemoteJob let a caller
// chase the job to the node that actually computed it.
func (cj *clusterJob) Status() JobStatus {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	st := JobStatus{
		ID:        cj.ID,
		State:     cj.state,
		Instance:  cj.instName,
		CacheKey:  cj.Key,
		Priority:  cj.req.Priority,
		Starts:    cj.req.Starts,
		Error:     cj.errMsg,
		Worker:    cj.worker,
		RemoteJob: cj.remoteJob,
		Requeues:  cj.dispatches - 1,
	}
	if cj.dispatches == 0 {
		st.Requeues = 0
	}
	switch {
	case cj.state == JobQueued:
		st.ElapsedMS = 0
	case cj.finished.IsZero():
		st.ElapsedMS = time.Since(cj.started).Milliseconds()
	default:
		st.ElapsedMS = cj.finished.Sub(cj.started).Milliseconds()
	}
	if len(cj.body) > 0 && cj.httpStatus == http.StatusOK {
		st.Report = json.RawMessage(cj.body)
	}
	return st
}

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
type Coordinator struct {
	cfg    ClusterConfig
	srv    *Server
	ring   *Ring
	client *http.Client
	log    *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	health   map[string]*workerHealth //hglint:guardedby mu
	queues   map[string][]*clusterJob //hglint:guardedby mu
	inflight map[string]*clusterJob   //hglint:guardedby mu
	jobs     map[string]*clusterJob   //hglint:guardedby mu
	order    []string                 //hglint:guardedby mu
	nextSeq  int64                    //hglint:guardedby mu
	closed   bool                     //hglint:guardedby mu

	wg sync.WaitGroup
}

// maxDispatchesPerJob bounds how many times one job may be (re)routed before
// the coordinator stops trusting the fleet and computes it locally.
func (c *Coordinator) maxDispatchesPerJob() int { return 2*len(c.ring.Nodes()) + 1 }

// newCoordinator builds the coordinator and starts its dispatchers and
// heartbeat probers. Workers start optimistically healthy: a dead node is
// discovered by the first dispatch or probe, whichever comes first.
func newCoordinator(cfg ClusterConfig, s *Server) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		srv:      s,
		ring:     NewRing(cfg.Workers, cfg.Replicas),
		client:   &http.Client{Transport: s.cfg.Transport},
		log:      s.log,
		health:   make(map[string]*workerHealth),
		queues:   make(map[string][]*clusterJob),
		inflight: make(map[string]*clusterJob),
		jobs:     make(map[string]*clusterJob),
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

// Close stops routing: queued jobs fail with 503, in-flight dispatches are
// cancelled, dispatchers and probers exit. Local-fallback jobs detach from
// their Manager job (the Manager's own drain checkpoints it).
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var queued []*clusterJob
	for _, addr := range c.ring.Nodes() { // sorted, so drain order is deterministic
		queued = append(queued, c.queues[addr]...)
		c.queues[addr] = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cj := range queued {
		c.finishJob(cj, http.StatusServiceUnavailable, nil, "coordinator draining before the job was dispatched", "")
	}
	c.baseCancel()
	c.wg.Wait()
}

// Submit routes one request into the cluster, coalescing identical in-flight
// requests by cache key exactly like Manager.Submit.
func (c *Coordinator) Submit(req PartitionRequest, inst *hypergraph.Hypergraph,
	instName, instHash, key string) (*clusterJob, bool, error) {
	forwardReq := req
	forwardReq.Async = false // the coordinator itself waits on the worker
	forward, err := json.Marshal(&forwardReq)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, errDraining
	}
	if cj, ok := c.inflight[key]; ok {
		return cj, true, nil
	}
	c.nextSeq++
	cj := &clusterJob{
		ID:       fmt.Sprintf("c-%06d", c.nextSeq),
		Key:      key,
		req:      req,
		inst:     inst,
		instName: instName,
		instHash: instHash,
		forward:  forward,
		state:    JobQueued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}

	// Route by ring order among healthy workers with queue room.
	target := ""
	anyHealthy := false
	for _, addr := range c.ring.Order(key) {
		if !c.health[addr].dispatchable() {
			continue
		}
		anyHealthy = true
		if len(c.queues[addr]) < c.cfg.QueuePerWorker {
			target = addr
			break
		}
	}
	switch {
	case !anyHealthy:
		// Whole fleet unreachable: degrade to single-node mode rather than
		// erroring. The local Manager's own queue bound still applies.
		c.registerLocked(cj)
		c.localFallbackLocked(cj, "no healthy workers")
	case target == "":
		return nil, false, errClusterBusy
	default:
		c.registerLocked(cj)
		// registerLocked published cj (Job/Jobs can hand it out), so its
		// mu-guarded fields need cj.mu from here on — c.mu is not enough.
		cj.mu.Lock()
		cj.dispatches++
		cj.mu.Unlock()
		c.queues[target] = append(c.queues[target], cj)
		c.cond.Broadcast()
	}
	c.srv.metrics.JobSubmitted()
	return cj, false, nil
}

func (c *Coordinator) registerLocked(cj *clusterJob) {
	c.jobs[cj.ID] = cj
	c.order = append(c.order, cj.ID)
	c.inflight[cj.Key] = cj
	c.pruneLocked()
}

// pruneLocked bounds coordinator job history like Manager.pruneLocked.
func (c *Coordinator) pruneLocked() {
	cap := c.srv.cfg.HistoryCap
	if cap <= 0 || len(c.order) <= cap {
		return
	}
	kept := c.order[:0]
	excess := len(c.order) - cap
	for _, id := range c.order {
		cj := c.jobs[id]
		terminal := false
		if cj != nil {
			cj.mu.Lock()
			terminal = cj.state == JobDone || cj.state == JobFailed
			cj.mu.Unlock()
		}
		if excess > 0 && (cj == nil || terminal) {
			delete(c.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	c.order = kept
}

// Job looks a cluster job up by id.
func (c *Coordinator) Job(id string) (*clusterJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cj, ok := c.jobs[id]
	return cj, ok
}

// Jobs snapshots retained cluster jobs in submission order.
func (c *Coordinator) Jobs() []*clusterJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*clusterJob, 0, len(c.order))
	for _, id := range c.order {
		if cj, ok := c.jobs[id]; ok {
			out = append(out, cj)
		}
	}
	return out
}

// dispatchLoop is one dispatcher slot for worker `home`: it pops the home
// queue, or — when home is idle — steals the oldest job from the longest
// sibling queue, then dispatches to home. Stolen work runs on home, which
// is the whole point: the idle node absorbs the imbalance.
func (c *Coordinator) dispatchLoop(home string) {
	defer c.wg.Done()
	for {
		cj := c.next(home)
		if cj == nil {
			return
		}
		c.dispatch(home, cj)
	}
}

// next blocks until home has work (own queue, or a steal) or the
// coordinator closes (nil).
func (c *Coordinator) next(home string) *clusterJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil
		}
		if c.health[home].dispatchable() {
			if q := c.queues[home]; len(q) > 0 {
				cj := q[0]
				c.queues[home] = q[1:]
				return cj
			}
			// Steal from the longest sibling queue, oldest job first (it has
			// waited longest). Ties break by ring node order, deterministically.
			best, bestLen := "", 0
			for _, addr := range c.ring.Nodes() {
				if addr == home {
					continue
				}
				if l := len(c.queues[addr]); l > bestLen {
					best, bestLen = addr, l
				}
			}
			if bestLen > 0 {
				q := c.queues[best]
				cj := q[0]
				c.queues[best] = q[1:]
				c.srv.metrics.ClusterSteal()
				c.log.Info("cluster: stole queued job", "job", cj.ID, "from", best, "to", home)
				return cj
			}
		}
		c.cond.Wait()
	}
}

// dispatch POSTs the job to worker synchronously under chaos.Retry. A 200
// that passes the integrity envelope finishes the job with the worker's
// report bytes; a corrupted or oversized response is retried like a
// transport error; a non-retryable HTTP error forwards the worker's
// verdict; exhausted retries mean the worker is dead — trip its breaker
// and fail the job over.
func (c *Coordinator) dispatch(worker string, cj *clusterJob) {
	cj.markRunning(worker)
	c.srv.metrics.ClusterDispatch()
	cj.mu.Lock()
	attempt := cj.dispatches
	cj.mu.Unlock()

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
		Seed:        c.cfg.RetrySeed ^ ringHash(cj.Key) ^ uint64(attempt),
	}
	err := retry.Do(c.baseCtx, func() (time.Duration, bool, error) {
		// Each attempt gets a fresh deadline: a retry after a worker 504 must
		// grant the redispatch its full budget, not the stale remainder.
		rpcCtx := c.baseCtx
		cancel := context.CancelFunc(func() {})
		deadline := ""
		if c.cfg.DispatchDeadline > 0 {
			dl := time.Now().Add(c.cfg.DispatchDeadline)
			rpcCtx, cancel = context.WithDeadline(c.baseCtx, dl)
			deadline = strconv.FormatInt(dl.UnixMilli(), 10)
		}
		defer cancel()
		req, rerr := http.NewRequestWithContext(rpcCtx, http.MethodPost,
			"http://"+worker+"/v1/partition", bytes.NewReader(cj.forward))
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
				c.srv.metrics.IntegrityFailure("dispatch")
				c.log.Warn("cluster: dispatch response failed the sha256 envelope; recomputing",
					"job", cj.ID, "worker", worker)
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
		c.srv.cache.Put(cj.Key, body)
		c.finishJob(cj, http.StatusOK, body, "", remoteJob)
	case permCode != 0:
		c.finishJob(cj, permCode, nil, permMsg, "")
	default:
		c.failover(worker, cj, err)
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
func (c *Coordinator) failover(worker string, cj *clusterJob, cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.finishJob(cj, http.StatusServiceUnavailable, nil, "coordinator draining", "")
		return
	}
	c.srv.metrics.ClusterFailover()
	c.log.Warn("cluster: dispatch failed; failing job over", "job", cj.ID, "worker", worker, "err", cause)
	c.tripBreakerLocked(worker, cause)
	c.enqueueLocked(cj)
	c.mu.Unlock()
}

// enqueueLocked (re)routes a job after a failover or an unhealthy-queue
// drain: next healthy worker in ring order, ignoring queue bounds (the job
// was already admitted — failover must not shed it), or local compute when
// the fleet is gone or the job has bounced too often.
func (c *Coordinator) enqueueLocked(cj *clusterJob) {
	cj.mu.Lock()
	cj.dispatches++
	bounced := cj.dispatches > c.maxDispatchesPerJob()
	cj.mu.Unlock()
	if bounced {
		c.localFallbackLocked(cj, "job exceeded the dispatch bound")
		return
	}
	for _, addr := range c.ring.Order(cj.Key) {
		if c.health[addr].dispatchable() {
			c.queues[addr] = append(c.queues[addr], cj)
			c.cond.Broadcast()
			return
		}
	}
	c.localFallbackLocked(cj, "no healthy workers")
}

// localFallbackLocked degrades one job to a local compute on the
// coordinator's own Manager. Called with c.mu held.
func (c *Coordinator) localFallbackLocked(cj *clusterJob, why string) {
	c.srv.metrics.ClusterLocalFallback()
	c.log.Warn("cluster: degrading to local compute", "job", cj.ID, "reason", why)
	c.wg.Add(1)
	go c.runLocal(cj)
}

// runLocal executes a cluster job on the coordinator's own Manager —
// single-node degradation. If the coordinator shuts down first, the waiter
// is released with 503 while the Manager's drain checkpoints the job.
func (c *Coordinator) runLocal(cj *clusterJob) {
	defer c.wg.Done()
	cj.markRunning("local")
	job, _, err := c.srv.manager.Submit(cj.req, cj.inst, cj.instName, cj.instHash, cj.Key)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, errDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errQueueFull):
			code = http.StatusTooManyRequests
		}
		c.finishJob(cj, code, nil, err.Error(), "")
		return
	}
	select {
	case <-job.Done():
		code, body, msg := job.Result()
		c.finishJob(cj, code, body, msg, job.ID)
	case <-c.baseCtx.Done():
		c.finishJob(cj, http.StatusServiceUnavailable, nil,
			"coordinator draining; local job "+job.ID+" is checkpointed", job.ID)
	}
}

// finishJob finalizes a cluster job and releases its singleflight slot.
func (c *Coordinator) finishJob(cj *clusterJob, code int, body []byte, errMsg, remoteJob string) {
	cj.finish(code, body, errMsg, remoteJob)
	c.mu.Lock()
	if c.inflight[cj.Key] == cj {
		delete(c.inflight, cj.Key)
	}
	c.mu.Unlock()
	state := JobDone
	if code != http.StatusOK {
		state = JobFailed
	}
	c.srv.metrics.JobFinished(state)
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
	defer c.mu.Unlock()
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
		return
	}
	h.fails++
	h.lastErr = probeErr.Error()
	switch {
	case h.breaker == breakerHalfOpen:
		c.tripBreakerLocked(addr, fmt.Errorf("heartbeat failed during half-open trial: %w", probeErr))
	case h.breaker == breakerClosed && h.fails >= c.cfg.FailThreshold:
		c.tripBreakerLocked(addr, fmt.Errorf("heartbeat: %d consecutive failures: %w", h.fails, probeErr))
	}
}

// tripBreakerLocked opens a worker's breaker (from closed or half-open),
// taking it out of rotation and rerouting its queued jobs. Called with c.mu
// held.
func (c *Coordinator) tripBreakerLocked(addr string, cause error) {
	h := c.health[addr]
	h.lastErr = cause.Error()
	if h.breaker == breakerOpen {
		return
	}
	h.breaker = breakerOpen
	c.log.Warn("cluster: breaker open; worker out of rotation", "worker", addr, "err", cause)
	q := c.queues[addr]
	c.queues[addr] = nil
	for _, cj := range q {
		c.enqueueLocked(cj)
	}
	c.cond.Broadcast()
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
	m := c.srv.metrics
	st := ClusterStatus{
		Mode:           "coordinator",
		Steals:         m.steals.get(),
		Failovers:      m.failovers.get(),
		LocalFallbacks: m.localFallbacks.get(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Jobs = len(c.jobs)
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
