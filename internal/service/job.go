package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"hgpart/internal/eval"
	"hgpart/internal/hypergraph"
	"hgpart/internal/kwayfm"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/portfolio"
	"hgpart/internal/rng"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobQueued means the job waits in the priority queue.
	JobQueued JobState = "queued"
	// JobRunning means a worker is executing the multistart.
	JobRunning JobState = "running"
	// JobDone means the job produced a report (possibly incomplete, if it
	// ran under a budget).
	JobDone JobState = "done"
	// JobFailed means no start produced a legal partition.
	JobFailed JobState = "failed"
	// JobCanceled means the job was cancelled before or during execution.
	JobCanceled JobState = "canceled"
	// JobInterrupted means a graceful drain stopped the job mid-run; its
	// completed starts are checkpointed, and resubmitting the identical
	// request resumes from the journal.
	JobInterrupted JobState = "interrupted"
)

// BSFLive is one live best-so-far improvement in completion order: after
// Completed finished starts, the best cut seen so far was Cut. Completion
// order is scheduler-dependent, so this trajectory is informational; the
// deterministic start-order trajectory lives in the final Report.
type BSFLive struct {
	Completed int   `json:"completed"`
	Cut       int64 `json:"cut"`
}

// Job is one partitioning request moving through the service.
type Job struct {
	// ID is the service-assigned job identifier ("j-000042").
	ID string
	// Key is the content-addressed cache key the job computes toward.
	Key string
	seq int64

	req      PartitionRequest
	inst     *hypergraph.Hypergraph
	instName string
	instHash string

	mu         sync.Mutex
	state      JobState           //hglint:guardedby mu
	completed  int                //hglint:guardedby mu
	failed     int                //hglint:guardedby mu
	resumed    int                //hglint:guardedby mu
	bsfCut     int64              //hglint:guardedby mu
	bsf        []BSFLive          //hglint:guardedby mu
	report     []byte             //hglint:guardedby mu
	httpStatus int                //hglint:guardedby mu
	errMsg     string             //hglint:guardedby mu
	enqueued   time.Time          //hglint:guardedby mu
	started    time.Time          //hglint:guardedby mu
	finished   time.Time          //hglint:guardedby mu
	cancel     context.CancelFunc //hglint:guardedby mu
	// lastBeat is the job's work-progress heartbeat: set at worker pickup and
	// on every start entry/completion. The watchdog compares it against
	// StuckAfter to detect a run that is alive but doing nothing.
	lastBeat time.Time //hglint:guardedby mu
	// kicked marks that the watchdog cancelled this run for lack of progress;
	// cancelled() turns that into a requeue (bounded by requeues) or a 500.
	kicked bool //hglint:guardedby mu
	// requeues counts watchdog requeues and, on a coordinator, re-routes
	// after a failed dispatch.
	requeues int //hglint:guardedby mu
	// worker and remoteJob name, on a coordinator, the node executing (or
	// that executed) the job and its job id there; see JobStatus.
	worker    string //hglint:guardedby mu
	remoteJob string //hglint:guardedby mu

	done chan struct{}
}

// JobStatus is the GET /v1/jobs/{id} document — a live, wall-clock-aware
// view (unlike the deterministic Report embedded once the job is done).
type JobStatus struct {
	ID        string    `json:"id"`
	State     JobState  `json:"state"`
	Instance  string    `json:"instance"`
	CacheKey  string    `json:"cache_key"`
	Priority  int       `json:"priority"`
	Starts    int       `json:"starts"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Resumed   int       `json:"resumed,omitempty"`
	Requeues  int       `json:"requeues,omitempty"`
	BSFCut    *int64    `json:"bsf_cut,omitempty"`
	BSF       []BSFLive `json:"bsf,omitempty"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Error     string    `json:"error,omitempty"`
	// Worker and RemoteJob are set on coordinator job views: the node that
	// executed (or is executing) the job and its job id there. A local
	// fallback (single-node degradation) reads "local" and the job's own id.
	Worker    string `json:"worker,omitempty"`
	RemoteJob string `json:"remote_job,omitempty"`
	// Report is the deterministic result document, present once State is
	// "done" or "failed".
	Report json.RawMessage `json:"report,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Instance:  j.instName,
		CacheKey:  j.Key,
		Priority:  j.req.Priority,
		Starts:    j.req.Starts,
		Completed: j.completed,
		Failed:    j.failed,
		Resumed:   j.resumed,
		Requeues:  j.requeues,
		Error:     j.errMsg,
		Worker:    j.worker,
		RemoteJob: j.remoteJob,
	}
	if len(j.bsf) > 0 {
		cut := j.bsfCut
		st.BSFCut = &cut
		st.BSF = append([]BSFLive(nil), j.bsf...)
	}
	switch {
	case j.state == JobQueued:
		st.ElapsedMS = 0
	case j.finished.IsZero():
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	default:
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	if len(j.report) > 0 {
		st.Report = json.RawMessage(j.report)
	}
	return st
}

// noteStart records one finished start for the live BSF view. Called from
// harness worker goroutines in completion order. Doubles as a heartbeat: a
// completing start is progress by definition.
func (j *Job) noteStart(cut int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed++
	j.lastBeat = time.Now()
	if len(j.bsf) == 0 || cut < j.bsfCut {
		j.bsfCut = cut
		j.bsf = append(j.bsf, BSFLive{Completed: j.completed, Cut: cut})
	}
}

// beat refreshes the work-progress heartbeat the watchdog watches.
func (j *Job) beat() {
	j.mu.Lock()
	j.lastBeat = time.Now()
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the terminal HTTP status, report bytes and error message.
// Valid only after Done() is closed.
func (j *Job) Result() (int, []byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.httpStatus, j.report, j.errMsg
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, httpStatus int, report []byte, errMsg string) {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled || j.state == JobInterrupted {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.httpStatus = httpStatus
	j.report = report
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// settle ends j in a terminal state and counts it. The count comes first,
// so a client released by the job's completion already sees it on /metrics.
func (m *Manager) settle(j *Job, state JobState, httpStatus int, report []byte, errMsg string) {
	m.metrics.JobFinished(state)
	j.finish(state, httpStatus, report, errMsg)
}

// progressHeuristic wraps a Heuristic to feed the job's live BSF view. It
// changes nothing about the computation: outcomes pass through untouched,
// and panics propagate to the harness's recovery exactly as before.
type progressHeuristic struct {
	inner eval.Heuristic
	job   *Job
}

func (p progressHeuristic) Name() string { return p.inner.Name() }

func (p progressHeuristic) Run(r *rng.RNG) eval.Outcome {
	p.job.beat() // entering a start is progress; only a wedged start goes quiet
	o := p.inner.Run(r)
	p.job.noteStart(o.Cut)
	return o
}

func (p progressHeuristic) PolishBest(b *partition.P, r *rng.RNG) eval.Outcome {
	return p.inner.PolishBest(b, r)
}

// jobPQ is the priority queue: higher Priority first, FIFO within a
// priority level (by submission sequence number).
type jobPQ []*Job

func (q jobPQ) Len() int { return len(q) }
func (q jobPQ) Less(i, j int) bool {
	if q[i].req.Priority != q[j].req.Priority {
		return q[i].req.Priority > q[j].req.Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobPQ) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobPQ) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// Manager owns the bounded worker pool, the priority queue, and job
// lifecycle. Submissions coalesce by cache key: a second identical request
// while the first is queued or running joins the existing job (the
// singleflight the acceptance test verifies).
//
// On a coordinator the Manager still owns every job; where a job executes
// is a routing choice: a worker's dispatch queue, or this node's own pool
// as a local fallback when no worker is dispatchable.
type Manager struct {
	// cfg is the normalized server configuration (see New).
	cfg     Config
	cache   *Cache
	metrics *Metrics
	log     *slog.Logger
	// cluster routes jobs to the worker fleet; nil off a coordinator.
	cluster *Coordinator

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	pq       jobPQ           //hglint:guardedby mu
	inflight map[string]*Job //hglint:guardedby mu
	jobs     map[string]*Job //hglint:guardedby mu
	order    []string        //hglint:guardedby mu
	nextSeq  int64           //hglint:guardedby mu
	running  int             //hglint:guardedby mu
	draining bool            //hglint:guardedby mu
	closed   bool            //hglint:guardedby mu
	wg       sync.WaitGroup
}

// errDraining rejects submissions during graceful drain.
var errDraining = fmt.Errorf("service is draining; retry against another instance")

// errQueueFull rejects submissions beyond the queue bound.
var errQueueFull = fmt.Errorf("job queue is full; retry later or lower the request rate")

// newManager starts the worker pool, the coordinator when cfg.Cluster names
// workers, and, when StuckAfter is set, the watchdog that reclaims runs
// which stop making progress.
func newManager(cfg Config, cache *Cache, metrics *Metrics, log *slog.Logger) *Manager {
	m := &Manager{
		cfg:      cfg,
		cache:    cache,
		metrics:  metrics,
		log:      log,
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	if len(cfg.Cluster.Workers) > 0 {
		m.cluster = newCoordinator(cfg.Cluster, m)
	}
	for w := 0; w < m.cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.cfg.StuckAfter > 0 {
		m.wg.Add(1)
		go m.watchdog()
	}
	return m
}

// watchdog periodically scans running jobs for stalled heartbeats and
// cancels runs that made no progress for stuckAfter. The cancelled run's
// worker decides between a bounded requeue (the journal preserves completed
// starts, so a requeue resumes rather than restarts) and a terminal 500.
func (m *Manager) watchdog() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.WatchdogInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-ticker.C:
		}
		now := time.Now()
		var kicks []*Job
		m.mu.Lock()
		// Scan in submission order (m.order), not map order, so concurrent
		// stalls are kicked oldest-first deterministically.
		for _, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				continue
			}
			j.mu.Lock()
			stuck := j.state == JobRunning && !j.kicked &&
				!j.lastBeat.IsZero() && now.Sub(j.lastBeat) > m.cfg.StuckAfter
			if stuck {
				j.kicked = true
				kicks = append(kicks, j)
			}
			j.mu.Unlock()
		}
		m.mu.Unlock()
		for _, j := range kicks {
			j.mu.Lock()
			cancel := j.cancel
			j.mu.Unlock()
			m.metrics.WatchdogKick()
			m.log.Warn("watchdog: job made no progress; cancelling run",
				"job", j.ID, "stuck_after", m.cfg.StuckAfter)
			if cancel != nil {
				cancel()
			}
		}
	}
}

// Submit enqueues a job for req (already normalized, validated and
// resolved). If an identical request (same cache key) is already queued or
// running, the existing job is returned with coalesced = true and nothing
// new is enqueued. On a coordinator the job is routed to a worker's
// dispatch queue, or to the local pool when no worker is dispatchable.
func (m *Manager) Submit(req PartitionRequest, inst *hypergraph.Hypergraph,
	instName, instHash, key string) (*Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.closed {
		return nil, false, errDraining
	}
	if j, ok := m.inflight[key]; ok {
		return j, true, nil
	}
	// The id prefix is fixed per node: "c-" on a coordinator, "j-" otherwise.
	prefix := "j-"
	if m.cluster != nil {
		prefix = "c-"
	}
	seq := m.nextSeq + 1
	j := &Job{
		ID:       fmt.Sprintf("%s%06d", prefix, seq),
		Key:      key,
		seq:      seq,
		req:      req,
		inst:     inst,
		instName: instName,
		instHash: instHash,
		state:    JobQueued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	local := true
	var err error
	if m.cluster != nil {
		local, err = m.cluster.route(j)
	}
	if local && err == nil {
		err = m.enqueueLocked(j)
	}
	if err != nil {
		return nil, false, err
	}
	m.nextSeq = seq
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.inflight[key] = j
	m.pruneLocked()
	m.metrics.JobSubmitted()
	return j, false, nil
}

// enqueueLocked puts j on the local pool's priority queue, within QueueCap.
// On a coordinator this is the local fallback: the job keeps its id and
// registry entry and names this node as the one computing it.
func (m *Manager) enqueueLocked(j *Job) error {
	if m.cfg.QueueCap > 0 && len(m.pq) >= m.cfg.QueueCap {
		return errQueueFull
	}
	if m.cluster != nil {
		j.mu.Lock()
		j.worker, j.remoteJob = "local", j.ID
		j.mu.Unlock()
		m.metrics.ClusterLocalFallback()
		m.log.Warn("cluster: degrading to local compute", "job", j.ID)
	}
	heap.Push(&m.pq, j)
	m.cond.Signal()
	return nil
}

// fallBack moves admitted coordinator jobs the fleet can no longer take
// onto the local pool. A draining pool cancels them like queued jobs; a
// full queue fails them with 429. Called without the Coordinator's lock,
// which orders after the Manager's.
func (m *Manager) fallBack(jobs ...*Job) {
	for _, j := range jobs {
		m.mu.Lock()
		err := errDraining
		if !m.draining && !m.closed {
			err = m.enqueueLocked(j)
		}
		m.mu.Unlock()
		switch {
		case errors.Is(err, errDraining):
			m.cancelQueued(j, 503, drainQueuedMsg)
		case err != nil:
			m.fail(j, 429, err.Error())
		}
	}
}

// Job looks a job up by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots all retained jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.pq {
		j.mu.Lock()
		if j.state == JobQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Running returns the number of jobs currently executing.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Cancel cancels a job: a queued job terminates immediately (workers and
// dispatchers skip it), a running job has its context cancelled and
// finishes as canceled — a local run with partial starts checkpointed (if
// checkpointing is on), a dispatch with its RPC abandoned.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case JobQueued:
		return m.cancelQueued(j, 409, "job cancelled while queued")
	case JobRunning:
		if cancel != nil {
			cancel()
		}
		return true
	default:
		return false
	}
}

// Drain performs the graceful SIGTERM sequence: stop accepting submissions,
// cancel queued jobs, cancel the contexts of running jobs (the harness lets
// in-flight starts finish and journals them), and wait — bounded by ctx —
// for every worker to go idle. After Drain returns, every job is terminal
// and every interrupted job's checkpoint is durable on disk.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	queued := m.pq
	m.pq = nil
	m.mu.Unlock()

	// Queued jobs never started: cancel them outright. The coordinator's
	// dispatch queues drain the same way, and its in-flight dispatches are
	// interrupted.
	for _, j := range queued {
		m.cancelQueued(j, 503, drainQueuedMsg)
	}
	if m.cluster != nil {
		m.cluster.Close()
	}

	// Running jobs: cancel their contexts; RunMultistart stops dispatching
	// and the checkpoint journal retains every completed start.
	m.baseCancel()

	idle := make(chan struct{})
	go func() {
		m.mu.Lock()
		for m.running > 0 {
			m.cond.Wait()
		}
		m.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		return fmt.Errorf("drain: %w with %d jobs still running", ctx.Err(), m.Running())
	}

	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	return nil
}

// Close shuts the pool down without the drain semantics (tests).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.cluster != nil {
		m.cluster.Close()
	}
	m.baseCancel()
	m.wg.Wait()
}

func (m *Manager) removeInflight(key string) {
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
}

// drainQueuedMsg is the error of a job a drain cancels before it started.
const drainQueuedMsg = "service draining before the job started"

// cancelQueued ends a job that never started with JobCanceled and code. It
// reports false when the job has already left the queued state.
func (m *Manager) cancelQueued(j *Job, code int, msg string) bool {
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if !queued {
		return false
	}
	m.removeInflight(j.Key)
	m.settle(j, JobCanceled, code, nil, msg)
	return true
}

// requeue puts a watchdog-kicked job back on the queue for another attempt.
// Returns false if the pool is draining or closed — the caller then fails
// the job instead. The live progress counters reset because the next attempt
// resumes from the journal and re-reports completions from there.
func (m *Manager) requeue(j *Job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.closed {
		return false
	}
	j.mu.Lock()
	j.state = JobQueued
	j.kicked = false
	j.requeues++
	j.cancel = nil
	j.completed = 0
	j.failed = 0
	j.bsf = nil
	j.bsfCut = 0
	j.mu.Unlock()
	heap.Push(&m.pq, j)
	m.cond.Signal()
	return true
}

// pruneLocked bounds job history: oldest terminal jobs beyond historyCap are
// forgotten. Queued and running jobs are never pruned.
func (m *Manager) pruneLocked() {
	if m.cfg.HistoryCap <= 0 || len(m.order) <= m.cfg.HistoryCap {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.cfg.HistoryCap
	for _, id := range m.order {
		j := m.jobs[id]
		terminal := false
		if j != nil {
			j.mu.Lock()
			terminal = j.state != JobQueued && j.state != JobRunning
			j.mu.Unlock()
		}
		if excess > 0 && (j == nil || terminal) {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// worker executes jobs until the pool closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pq) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pq) == 0 {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.pq).(*Job)
		j.mu.Lock()
		skip := j.state != JobQueued
		if !skip {
			j.state = JobRunning
			j.started = time.Now()
			j.lastBeat = j.started
		}
		j.mu.Unlock()
		if skip {
			m.mu.Unlock()
			continue
		}
		m.running++
		m.mu.Unlock()

		m.run(j)

		m.mu.Lock()
		m.running--
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// jobPlan is what a mode's pre-phase hands the shared job lifecycle: the
// multistart to run, anything the pre-phase already settled, and how the
// report describes the engine.
type jobPlan struct {
	// raw builds the heuristic (before progress tracking); seed roots the
	// multistart, its checkpoint journal and the finish step's polish.
	raw  func() eval.Heuristic
	seed uint64
	// workBudget bounds the multistart (0 = unbounded); spent is work the
	// pre-phase already did, charged to the report and metrics.
	workBudget int64
	spent      int64
	// fallback, when non-nil, is an already-polished legal best: the
	// multistart's best replaces it only per portfolio.CommitWins, and a
	// multistart with no legal start falls back to it instead of a 422.
	fallback *eval.Outcome
	// engine and vcycles are the configuration the report names.
	engine  string
	vcycles int
	// portfolio is the race section of a mode=portfolio report; the
	// lifecycle fills in its Source.
	portfolio *PortfolioReport
}

// fixedPlan is the pre-phase of a fixed-engine job: the engine is
// portfolio.FixedArm, built with a generator derived from the request seed
// alone, as cmd/hgpart and hgpart.Bisect build it; the lifecycle's finish
// step (eval.Finish) is the one they run, so their answers agree byte for
// byte.
func fixedPlan(req PartitionRequest, h *hypergraph.Hypergraph, bal partition.Balance) *jobPlan {
	return &jobPlan{
		raw:        portfolio.FixedArm(req.Engine, req.VCycles).Factory(h, bal, req.Seed),
		seed:       req.Seed,
		workBudget: req.WorkBudget,
		engine:     req.Engine,
		vcycles:    req.VCycles,
	}
}

// run executes one job end to end: the mode's pre-phase, then the one
// shared lifecycle — checkpointed multistart through the fault-tolerant
// harness under the job's context, cancellation dispositions, deterministic
// report construction, cache fill, journal retirement and metrics.
func (m *Manager) run(j *Job) {
	t0 := time.Now()
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	// The wall budget bounds the whole job. The pre-phase runs under it as a
	// deadline (a race that cannot finish in time is a 422); the multistart
	// gets what is left as its own budget under the undeadlined job context,
	// so an expiry there is an incomplete report, never a cancellation.
	preCtx := ctx
	var deadline time.Time
	if j.req.WallBudgetMS > 0 {
		deadline = t0.Add(time.Duration(j.req.WallBudgetMS) * time.Millisecond)
		var dcancel context.CancelFunc
		preCtx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
	}

	bal := partition.NewBalance(j.inst.TotalVertexWeight(), j.req.Tolerance)
	var p *jobPlan
	if j.req.Mode == "portfolio" {
		var err error
		if p, err = m.portfolioPlan(preCtx, j, bal); err != nil {
			if ctx.Err() != nil {
				m.cancelled(j, 0, "")
			} else {
				m.fail(j, 422, err.Error())
			}
			return
		}
	} else {
		p = fixedPlan(j.req, j.inst, bal)
	}
	if m.cfg.testWrap != nil {
		p.raw = m.cfg.testWrap(p.raw)
	}
	factory := func() eval.Heuristic { return progressHeuristic{inner: p.raw(), job: j} }

	opt := eval.RunOptions{
		Workers:    j.req.Workers,
		MaxRetries: m.cfg.MaxRetries,
		// Every served answer is verified against a from-scratch recount and
		// the balance constraint; an infeasible tolerance therefore fails all
		// starts and surfaces as 422 instead of a silently-illegal partition.
		Verify:     eval.VerifyOutcome(bal),
		WorkBudget: p.workBudget,
		// When the watchdog cancels a wedged run, don't wait forever for the
		// wedged start: abandon it after the same stuck threshold so the
		// worker slot can requeue the job. Zero disables abandonment.
		AbandonGrace: m.cfg.StuckAfter,
	}
	if opt.Workers <= 0 || opt.Workers > m.cfg.StartWorkers {
		opt.Workers = m.cfg.StartWorkers
	}
	if !deadline.IsZero() {
		opt.WallBudget = max(time.Until(deadline), time.Millisecond)
	}

	var cpPath string
	if m.cfg.CheckpointDir != "" {
		cpPath = filepath.Join(m.cfg.CheckpointDir, j.Key+".jsonl")
		cp, err := eval.OpenCheckpointFS(m.cfg.FS, cpPath, j.Key, p.seed, j.req.Starts, true)
		if err != nil {
			// A corrupt journal must not take the job down; run without one.
			m.log.Warn("checkpoint open failed; running without journal",
				"job", j.ID, "path", cpPath, "err", err)
			cpPath = ""
		} else {
			defer cp.Close()
			opt.Checkpoint = cp
			if q := cp.Quarantined(); len(q) > 0 {
				m.log.Warn("checkpoint journal had damaged records; quarantined",
					"job", j.ID, "records", len(q), "lost_starts", cp.LostStarts())
			}
			if n := cp.Resumed(); n > 0 {
				j.mu.Lock()
				j.resumed = n
				j.mu.Unlock()
				m.log.Info("resuming from checkpoint", "job", j.ID, "starts", n)
			}
		}
	}

	rep := eval.RunMultistart(ctx, factory, j.req.Starts, p.seed, opt)
	m.metrics.ObserveRun(time.Since(t0), p.spent+rep.TotalWork)
	if rep.JournalErr != nil {
		// Journal writes degraded (disk full, fsync failure, ...): the run's
		// answer is still sound, but a crash would lose the unjournaled
		// starts. Surface it loudly rather than silently losing durability.
		m.log.Error("checkpoint journal degraded; completed starts may not be durable",
			"job", j.ID, "path", cpPath, "err", rep.JournalErr)
	}
	if rep.Incomplete && rep.Reason == "cancelled" {
		m.cancelled(j, rep.Completed, cpPath)
		return
	}
	if rep.BestIdx < 0 && p.fallback == nil {
		msg := "no legal partition found (tolerance may be infeasible)"
		if fr := firstErr(rep); fr != "" {
			msg += ": " + fr
		}
		if cpPath != "" {
			m.cfg.FS.Remove(cpPath)
		}
		m.fail(j, 422, msg)
		return
	}
	m.removeInflight(j.Key)

	report, err := m.buildReport(ctx, j, bal, p, rep)
	if err != nil {
		m.settle(j, JobFailed, 500, nil, err.Error())
		m.log.Error("report construction failed", "job", j.ID, "err", err)
		return
	}
	body, err := json.Marshal(report)
	if err != nil {
		m.settle(j, JobFailed, 500, nil, fmt.Sprintf("encode report: %v", err))
		return
	}
	if !rep.Incomplete {
		// Complete runs are deterministic: cache the bytes and retire the
		// journal — the cache now answers faster than a resume would.
		m.cache.Put(j.Key, body)
		if cpPath != "" {
			m.cfg.FS.Remove(cpPath)
		}
	}
	m.settle(j, JobDone, 200, body, "")
	m.log.Info("job done", "job", j.ID, "instance", j.instName, "engine", report.Engine,
		"cut", report.Cut, "work", report.Work, "incomplete", report.Incomplete,
		"elapsed_ms", time.Since(t0).Milliseconds())
}

// fail ends a job with an error status before any report exists.
func (m *Manager) fail(j *Job, status int, msg string) {
	m.removeInflight(j.Key)
	m.settle(j, JobFailed, status, nil, msg)
}

// cancelled settles a job whose context was cancelled in either phase, with
// completed multistart starts checkpointed at cpPath. A watchdog kick is
// handled first: the run wedged rather than being stopped, so it deserves
// another chance on a (possibly healthier) worker — the inflight entry
// survives the requeue so identical submissions keep coalescing, and the
// journal turns the retry into a resume (a pre-phase is cheap and reruns
// deterministically). Otherwise a drain interrupts the job (503, journal
// kept for a resubmission to resume) and anything else is a client cancel.
func (m *Manager) cancelled(j *Job, completed int, cpPath string) {
	j.mu.Lock()
	kicked := j.kicked
	requeues := j.requeues
	j.mu.Unlock()
	if kicked && !m.isDraining() {
		if requeues < m.cfg.MaxRequeues && m.requeue(j) {
			m.metrics.JobRequeued()
			m.log.Warn("watchdog: requeued stuck job",
				"job", j.ID, "requeue", requeues+1, "of", m.cfg.MaxRequeues,
				"completed", completed, "starts", j.req.Starts)
			return
		}
		m.fail(j, 500, fmt.Sprintf(
			"job made no progress for %s and exhausted %d requeue(s); %d of %d starts checkpointed",
			m.cfg.StuckAfter, m.cfg.MaxRequeues, completed, j.req.Starts))
		m.log.Error("watchdog: job failed after exhausting requeues",
			"job", j.ID, "requeues", requeues, "completed", completed)
		return
	}
	m.removeInflight(j.Key)
	if m.isDraining() {
		m.settle(j, JobInterrupted, 503, nil, fmt.Sprintf(
			"service drained mid-run: %d of %d starts checkpointed; resubmit the identical request to resume",
			completed, j.req.Starts))
		m.log.Info("job interrupted by drain", "job", j.ID,
			"completed", completed, "starts", j.req.Starts, "checkpoint", cpPath)
		return
	}
	m.settle(j, JobCanceled, 409, nil, fmt.Sprintf(
		"job cancelled: %d of %d starts completed", completed, j.req.Starts))
}

// buildReport assembles the deterministic Report from the plan and the
// harness result. ctx bounds the optional parallel-refine polish; a
// cancelled polish fails the job rather than caching a partially refined
// answer.
func (m *Manager) buildReport(ctx context.Context, j *Job, bal partition.Balance,
	p *jobPlan, rep *eval.RunReport) (*Report, error) {
	work := p.spent + rep.TotalWork
	var best eval.Outcome
	source := "race"
	if portfolio.CommitWins(rep, p.fallback) {
		var err error
		if best, err = eval.Finish(p.raw, p.seed, rep); err != nil {
			return nil, err
		}
		source = "commit"
		work = p.spent + best.Work
	} else {
		best = *p.fallback
	}
	cut := best.Cut
	// MinCut keeps the paper's raw-multistart discipline; only when no start
	// succeeded (a portfolio commit) does it fall back to the race best.
	minCut := best.Cut
	if rep.BestIdx >= 0 {
		minCut = rep.Best.Cut
	}

	// Optional deterministic parallel FM polish: synchronous rounds of
	// parallel evaluation with a vertex-ID-ordered commit, so the refined
	// partition — and therefore the report bytes — is identical at every
	// positive thread count (matching the thread-count-free cache key). The
	// requested count is an execution knob only and is clamped to the
	// server's cap. A ctx-cancelled polish aborts the report instead of
	// caching a partially refined answer.
	var refineRounds int
	var refineMoves int64
	side0, side1 := best.P.Area(0), best.P.Area(1)
	if j.req.RefineThreads > 0 {
		threads := j.req.RefineThreads
		if m.cfg.MaxRefineThreads > 0 && threads > m.cfg.MaxRefineThreads {
			threads = m.cfg.MaxRefineThreads
		}
		parts := make(objective.Assignment, j.inst.NumVertices())
		for v := range parts {
			parts[v] = int32(best.P.Side(int32(v)))
		}
		pres, err := kwayfm.ParRefine(ctx, j.inst, parts, 2, kwayfm.ParConfig{
			Objective: kwayfm.CutObjective,
			Threads:   threads,
			LoBound:   bal.Lo,
			HiBound:   bal.Hi,
		})
		if err != nil {
			return nil, fmt.Errorf("parallel refine polish: %w", err)
		}
		cut = pres.Final
		work += pres.Work
		refineRounds = pres.Rounds
		refineMoves = pres.Moves
		side0, side1 = 0, 0
		for v, side := range parts {
			if side == 0 {
				side0 += j.inst.VertexWeight(int32(v))
			} else {
				side1 += j.inst.VertexWeight(int32(v))
			}
		}
	}

	r := &Report{
		Schema:       "hgserved/v1",
		Instance:     j.instName,
		InstanceHash: j.instHash,
		Vertices:     j.inst.NumVertices(),
		Edges:        j.inst.NumEdges(),
		Pins:         j.inst.NumPins(),
		Engine:       p.engine,
		Starts:       j.req.Starts,
		VCycles:      p.vcycles,
		Tolerance:    j.req.Tolerance,
		Seed:         j.req.Seed,
		CacheKey:     j.Key,
		Cut:          cut,
		MinCut:       minCut,
		BestStart:    rep.BestIdx,
		Side0:        side0,
		Side1:        side1,
		RefineRounds: refineRounds,
		RefineMoves:  refineMoves,
		Completed:    rep.Completed,
		Failed:       rep.Failed,
		Skipped:      rep.Skipped,
		Incomplete:   rep.Incomplete,
		Reason:       rep.Reason,
		Work:         work,
	}
	r.NormalizedSeconds = float64(work) / eval.WorkUnitsPerSecond
	if p.portfolio != nil {
		r.Portfolio = p.portfolio
		r.Portfolio.Source = source
	}

	// Start-order BSF trajectory and the min/avg discipline over successful
	// starts: both pure functions of the per-start outcomes.
	var sum int64
	n := 0
	for _, sr := range rep.Results {
		if sr.Status != eval.StartOK {
			continue
		}
		sum += sr.Outcome.Cut
		n++
		if len(r.BSF) == 0 || sr.Outcome.Cut < r.BSF[len(r.BSF)-1].Cut {
			r.BSF = append(r.BSF, BSFEntry{Start: sr.Start, Cut: sr.Outcome.Cut})
		}
	}
	if n > 0 {
		r.AvgCut = float64(sum) / float64(n)
	}
	return r, nil
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// firstErr extracts the first per-start failure message, if any.
func firstErr(rep *eval.RunReport) string {
	for _, sr := range rep.Results {
		if sr.Err != nil {
			return sr.Err.Error()
		}
	}
	return ""
}
