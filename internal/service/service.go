// Package service implements hgserved, the partitioning-as-a-service
// daemon: a long-running HTTP front end over the repository's evaluation
// machinery. Requests (inline netlists or named synthetic benchmarks) run
// through eval.RunMultistart on a bounded worker pool with per-job
// contexts, wall/work budgets and priority queueing; results are
// deterministic documents (same instance + config + seed ⇒ byte-identical
// report) served from a content-addressed LRU cache with singleflight
// coalescing of duplicate in-flight requests. The daemon exposes live job
// status with best-so-far progress, Prometheus metrics, health/readiness
// probes, structured logs, and a graceful drain that checkpoints running
// jobs through the eval JSONL journal so a restart loses no completed
// starts. See DESIGN.md §10.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"hgpart/internal/chaos"
	"hgpart/internal/eval"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
	"hgpart/internal/report"
)

// Config parameterizes the daemon. The zero value is unusable; use
// DefaultConfig as the base.
type Config struct {
	// Workers is the number of jobs executing concurrently.
	Workers int
	// StartWorkers caps concurrent starts within one job (results are
	// identical at any value — the harness pre-splits seeds).
	StartWorkers int
	// MaxRefineThreads caps a request's refine_threads (results are
	// identical at any positive value — the parallel refiner commits in
	// vertex order). <= 0 leaves requests unclamped.
	MaxRefineThreads int
	// QueueCap bounds the number of queued jobs; submissions beyond it get
	// HTTP 429.
	QueueCap int
	// HistoryCap bounds how many terminal jobs remain queryable.
	HistoryCap int
	// MaxRetries reseeds a panicking start up to this many times.
	MaxRetries int
	// CacheEntries / CacheBytes bound the result cache (either <= 0
	// disables that bound).
	CacheEntries int
	CacheBytes   int64
	// CheckpointDir, when non-empty, journals every job's completed starts
	// there so a drain (or crash) loses nothing; resubmitting an identical
	// request resumes the journal.
	CheckpointDir string
	// MaxBodyBytes bounds request bodies (inline netlists). Oversized bodies
	// get a structured HTTP 413 naming the configured limit.
	MaxBodyBytes int64
	// MaxVertices and MaxPins cap admitted instances; a request resolving to
	// a larger hypergraph is rejected with HTTP 422 before any work is
	// queued. 0 disables the respective cap.
	MaxVertices int
	MaxPins     int
	// StuckAfter is how long a running job may go without work progress (no
	// start beginning or finishing) before the watchdog cancels it for
	// requeue; <= 0 disables the watchdog.
	StuckAfter time.Duration
	// WatchdogInterval is how often the watchdog scans running jobs; <= 0
	// means 5s.
	WatchdogInterval time.Duration
	// MaxRequeues bounds how many times the watchdog requeues one stuck job
	// before failing it with HTTP 500.
	MaxRequeues int
	// FS is the filesystem checkpoint journals live on. Nil means the real
	// filesystem; cmd/hgserved installs a chaos.FaultFS under -chaos so
	// crash-consistency experiments exercise the same code paths production
	// uses.
	FS chaos.FS
	// Transport, when non-nil, replaces http.DefaultTransport for every
	// inter-node client — cluster dispatch, peer cache probes, heartbeat
	// probers. cmd/hgserved installs a chaos.Transport here under -net-chaos
	// so degraded-network experiments exercise the exact RPC paths
	// production uses (DESIGN.md §16).
	Transport http.RoundTripper
	// Peers lists sibling worker addresses ("host:port") whose result caches
	// are consulted on a local miss before computing. Reports are
	// content-addressed and deterministic, so a peer's bytes are exactly the
	// bytes this node would produce. Empty disables peering.
	Peers []string
	// PeerTimeout bounds each sibling cache probe; <= 0 means 250ms.
	PeerTimeout time.Duration
	// Cluster, when it names workers, puts this node in coordinator mode:
	// requests route to the worker fleet by consistent hashing on the cache
	// key (with heartbeat failover, work-stealing and single-node
	// degradation) instead of running on the local pool. See DESIGN.md §12.
	Cluster ClusterConfig
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger

	// testWrap, when non-nil, wraps every job's heuristic factory after its
	// mode's pre-phase (tests only: it lets the watchdog and disposition
	// suites wedge or slow a start deterministically).
	testWrap func(func() eval.Heuristic) func() eval.Heuristic
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		Workers:          2,
		StartWorkers:     2,
		MaxRefineThreads: 8,
		QueueCap:         256,
		HistoryCap:       512,
		MaxRetries:       1,
		CacheEntries:     4096,
		CacheBytes:       64 << 20,
		MaxBodyBytes:     64 << 20,
		MaxVertices:      2_000_000,
		MaxPins:          20_000_000,
		StuckAfter:       2 * time.Minute,
		WatchdogInterval: 5 * time.Second,
		MaxRequeues:      1,
	}
}

// Server is the daemon: job manager, result cache, metrics and HTTP mux.
// In coordinator mode cluster is non-nil and routes work to the fleet; in
// worker mode peers (when configured) probes sibling caches before
// computing. Both nil is the plain single-node daemon.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *Cache
	metrics *Metrics
	manager *Manager
	peers   *PeerSet
	cluster *Coordinator
	mux     *http.ServeMux
	ready   atomic.Bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.StartWorkers < 1 {
		cfg.StartWorkers = 1
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = 5 * time.Second
	}
	if cfg.MaxRequeues < 0 {
		cfg.MaxRequeues = 0
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OS()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		log:     log,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheBytes),
		metrics: NewMetrics(),
	}
	// A chaos transport reports each injected fault into /metrics; wire the
	// hook before any coordinator or peer client can send a request.
	if ct, ok := cfg.Transport.(*chaos.Transport); ok {
		metrics := s.metrics
		ct.SetOnFault(func(r chaos.Rule) { metrics.NetFaultInjected(r.Fault.String()) })
	}
	s.manager = newManager(cfg, s.cache, s.metrics, log)
	s.cluster = s.manager.cluster
	if len(cfg.Peers) > 0 {
		s.peers = NewPeerSet(cfg.Peers, cfg.PeerTimeout, cfg.Transport, s.metrics, log)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/partition", s.instrument("partition", s.handlePartition))
	s.mux.HandleFunc("POST /v1/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job_cancel", s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /internal/v1/cache/{key}", s.instrument("peer_cache", s.handlePeerCache))
	s.ready.Store(true)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the server accepts new work.
func (s *Server) Ready() bool { return s.ready.Load() }

// CacheStats snapshots the result cache's counters (tests and ops tooling).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Drain gracefully stops the server's work: readiness flips false first (so
// load balancers stop routing here while the listener still answers), new
// submissions are rejected, queued jobs are cancelled, running jobs are
// interrupted with their completed starts checkpointed. It returns when all
// workers are idle or ctx expires. The HTTP listener itself is the
// caller's to close — after Drain returns, per the SIGTERM sequence in
// cmd/hgserved.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.log.Info("drain: readiness flipped, stopping job intake")
	err := s.manager.Drain(ctx)
	if err != nil {
		s.log.Error("drain: incomplete", "err", err)
	} else {
		s.log.Info("drain: all workers idle")
	}
	return err
}

// Close tears the worker pool down without drain semantics (tests).
func (s *Server) Close() {
	s.ready.Store(false)
	s.manager.Close()
}

// statusRecorder captures the response code for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and structured logging.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: 200}
		h(rec, r)
		s.metrics.ObserveRequest(route, rec.code)
		s.log.Info("request", "route", route, "method", r.Method, "path", r.URL.Path,
			"code", rec.code, "elapsed_ms", time.Since(t0).Milliseconds())
	}
}

// errorBody writes a JSON error document. Every shed-load response (503 and
// 429) carries a Retry-After header (delta-seconds) so well-behaved clients
// — chaos.Retry among them — back off for the server's own estimate of the
// pressure window instead of hammering a loaded or restarting instance.
func errorBody(w http.ResponseWriter, code int, msg string) {
	errorBodyFields(w, code, msg, nil)
}

// errorBodyFields is errorBody with extra machine-readable fields alongside
// "error" — e.g. the configured limit a request exceeded.
func errorBodyFields(w http.ResponseWriter, code int, msg string, fields map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	doc := map[string]any{"error": msg}
	for k, v := range fields {
		doc[k] = v
	}
	_ = json.NewEncoder(w).Encode(doc)
}

// presizeCap bounds readBody's up-front allocation, so a client announcing
// a large Content-Length must send bytes before the server commits memory
// to them; a larger body grows its buffer as it arrives.
const presizeCap = 1 << 20

// readBody reads the whole request body once, under the configured byte
// limit, into one buffer sized from Content-Length, writing the structured
// error response itself on failure: a body over the limit gets 413 with the
// configured limit, whatever JSON it starts with.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// ReadFrom wants MinRead spare bytes to see EOF without regrowing.
		buf.Grow(int(min(r.ContentLength, s.cfg.MaxBodyBytes, presizeCap)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			errorBodyFields(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the configured limit of %d bytes", s.cfg.MaxBodyBytes),
				map[string]any{"limit_bytes": s.cfg.MaxBodyBytes})
			return nil, false
		}
		errorBody(w, http.StatusBadRequest, "decode request: "+err.Error())
		return nil, false
	}
	return buf.Bytes(), true
}

// admitRequest is the front end both POST routes share: decode the read
// body (one JSON value, unknown fields and trailing non-whitespace
// rejected), normalize, validate, run the route's gate, resolve the
// instance and admit it against the size caps. On failure it has written
// the error response; gate writes its own.
func (s *Server) admitRequest(w http.ResponseWriter, raw []byte, gate func(*PartitionRequest) bool) (
	req PartitionRequest, h *hypergraph.Hypergraph, instName string, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		errorBody(w, http.StatusBadRequest, "decode request: "+err.Error())
		return req, nil, "", false
	}
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) > 0 {
		errorBody(w, http.StatusBadRequest, "decode request: trailing data after the JSON value")
		return req, nil, "", false
	}
	req.normalize()
	if err := req.validate(); err != nil {
		errorBody(w, http.StatusBadRequest, err.Error())
		return req, nil, "", false
	}
	if !gate(&req) {
		return req, nil, "", false
	}
	h, instName, err := req.resolveInstance()
	if err != nil {
		var pe *netlist.ParseError
		var re *RequestError
		switch {
		case errors.As(err, &pe):
			errorBody(w, http.StatusBadRequest, fmt.Sprintf("%s instance rejected: %s", pe.Format, pe.Error()))
		case errors.As(err, &re):
			errorBody(w, http.StatusBadRequest, re.Error())
		default:
			// Every bad input resolves to a typed error; anything else is
			// the server's own fault.
			errorBody(w, http.StatusInternalServerError, err.Error())
		}
		return req, nil, "", false
	}
	if !s.admitInstance(w, h) {
		return req, nil, "", false
	}
	return req, h, instName, true
}

// admitInstance enforces the resolved-instance size caps, writing the 422
// itself when the instance is too large to serve.
func (s *Server) admitInstance(w http.ResponseWriter, h *hypergraph.Hypergraph) bool {
	if s.cfg.MaxVertices > 0 && h.NumVertices() > s.cfg.MaxVertices {
		errorBodyFields(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("instance has %d vertices, above the configured cap of %d", h.NumVertices(), s.cfg.MaxVertices),
			map[string]any{"vertices": h.NumVertices(), "limit_vertices": s.cfg.MaxVertices})
		return false
	}
	if s.cfg.MaxPins > 0 && h.NumPins() > s.cfg.MaxPins {
		errorBodyFields(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("instance has %d pins, above the configured cap of %d", h.NumPins(), s.cfg.MaxPins),
			map[string]any{"pins": h.NumPins(), "limit_pins": s.cfg.MaxPins})
		return false
	}
	return true
}

// checkDeadline parses a coordinator's propagated X-Hg-Deadline, writing
// the 400 for a malformed one and the 504 for one already passed.
func (s *Server) checkDeadline(w http.ResponseWriter, r *http.Request) (deadline time.Time, has, ok bool) {
	deadline, has, err := parseDeadline(r.Header)
	if err != nil {
		errorBody(w, http.StatusBadRequest, err.Error())
		return deadline, has, false
	}
	if has && !time.Now().Before(deadline) {
		s.metrics.DeadlineAbandon()
		errorBody(w, http.StatusGatewayTimeout,
			"propagated coordinator deadline already passed; job abandoned before start")
		return deadline, has, false
	}
	return deadline, has, true
}

// handlePartition is the main entry point. Flow: read body → body-digest
// memo hit, or decode → validate → deadline → resolve instance → cache
// lookup → singleflight submit → (sync) wait.
//
// A body whose digest the cache remembers has passed decode, validate,
// resolve and admit before, and each is a pure function of the body bytes
// and static config, so the memo path runs only the steps that can still
// fail — the deadline check, then the cache lookup — and a memo miss or an
// evicted report falls through to the full path.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		errorBody(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sum := sha256.Sum256(raw)
	if key, ok := s.cache.keyForBody(sum); ok {
		if _, _, ok := s.checkDeadline(w, r); !ok {
			return
		}
		if cached, ok := s.cache.Get(key); ok {
			s.writeReport(w, cached, "hit", "")
			return
		}
	}
	// A coordinator stamps dispatches with its absolute deadline; honoring
	// it here means a worker never computes for a coordinator that has
	// already failed over (the journal keeps completed starts either way).
	var deadline time.Time
	var hasDeadline bool
	req, h, instName, ok := s.admitRequest(w, raw, func(*PartitionRequest) bool {
		var ok bool
		deadline, hasDeadline, ok = s.checkDeadline(w, r)
		return ok
	})
	if !ok {
		return
	}
	instHash := instanceHash(h)
	key := cacheKey(instHash, &req)
	// Remember the body once the request is answered: by then a miss's
	// report is cached too, and an uncached key remembers nothing.
	defer s.cache.rememberBody(sum, key)

	if cached, ok := s.cache.Get(key); ok {
		s.writeReport(w, cached, "hit", "")
		return
	}

	// Worker mode: a sibling may already hold these exact bytes. Any peer
	// failure falls through to a local compute. A coordinator routes into
	// its fleet instead.
	if s.peers != nil && s.cluster == nil {
		if body, ok := s.peers.Lookup(r.Context(), key); ok {
			s.cache.Put(key, body)
			s.writeReport(w, body, "peer", "")
			return
		}
	}

	job, coalesced, err := s.manager.Submit(req, h, instName, instHash, key)
	switch {
	case errors.Is(err, errDraining), errors.Is(err, errClusterBusy):
		errorBody(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errQueueFull):
		errorBody(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		errorBody(w, http.StatusInternalServerError, err.Error())
		return
	}
	if coalesced {
		s.cache.Coalesced()
	} else {
		s.cache.Miss()
	}

	if req.Async {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Hgserved-Cache", flightLabel(coalesced))
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"job": job.ID, "cache_key": key, "status": "/v1/jobs/" + job.ID,
		})
		return
	}

	var abandon <-chan time.Time
	if hasDeadline {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		abandon = timer.C
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away; the job keeps running and will fill the
		// cache for the next asker.
		errorBody(w, 499, "client closed request; job "+job.ID+" continues")
		return
	case <-abandon:
		// Unlike a vanished client, a passed deadline cancels the compute:
		// nobody is waiting for these bytes, and the redispatch resumes from
		// the job's journal instead of re-earning the completed starts.
		s.metrics.DeadlineAbandon()
		s.manager.Cancel(job.ID)
		errorBody(w, http.StatusGatewayTimeout,
			"propagated coordinator deadline passed; job "+job.ID+" abandoned (completed starts stay journaled)")
		return
	}
	code, reportBytes, errMsg := job.Result()
	if code != http.StatusOK {
		errorBody(w, code, errMsg)
		return
	}
	disposition := flightLabel(coalesced)
	if s.cluster != nil && job.Status().Worker == "local" {
		disposition = "local-fallback"
	}
	s.writeReport(w, reportBytes, disposition, job.ID)
}

func flightLabel(coalesced bool) string {
	if coalesced {
		return "coalesced"
	}
	return "miss"
}

// handleCluster reports the coordinator's fleet view; a non-coordinator
// node answers with its mode so ops tooling can probe any node uniformly.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cluster == nil {
		mode := "single-node"
		if s.peers != nil {
			mode = "worker"
		}
		_ = json.NewEncoder(w).Encode(ClusterStatus{Mode: mode})
		return
	}
	_ = json.NewEncoder(w).Encode(s.cluster.Status())
}

// handlePeerCache serves sibling cache probes: the raw cached report bytes
// for a key, or 404. Peek leaves this node's own hit accounting untouched.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cache.Peek(r.PathValue("key"))
	if !ok {
		errorBody(w, http.StatusNotFound, "key not cached")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(integrityHeader, bodySHA(body))
	_, _ = w.Write(body)
}

// writeReport sends the deterministic report bytes verbatim. Cache
// disposition and job id ride in headers so the body stays byte-identical
// across hit, miss and coalesced paths; the sha256 integrity envelope lets
// a coordinator or peer detect bytes corrupted in transit.
func (s *Server) writeReport(w http.ResponseWriter, body []byte, disposition, jobID string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hgserved-Cache", disposition)
	w.Header().Set(integrityHeader, bodySHA(body))
	if jobID != "" {
		w.Header().Set("X-Hgserved-Job", jobID)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.manager.Job(r.PathValue("id"))
	if !ok {
		errorBody(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.manager.Job(id); !ok {
		errorBody(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.manager.Cancel(id) {
		errorBody(w, http.StatusConflict, "job already terminal")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"job": id, "cancel": "requested"})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.manager.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		st.Report = nil // list view stays light; fetch the job for the report
		st.BSF = nil
		out = append(out, st)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleStats renders a human-readable service summary using the
// repository's report tables.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	t := report.NewTable("hgserved", "quantity", "value")
	t.AddRow("queue depth", fmt.Sprint(s.manager.QueueDepth()))
	t.AddRow("running jobs", fmt.Sprint(s.manager.Running()))
	t.AddRow("cache entries", fmt.Sprint(cs.Entries))
	t.AddRow("cache bytes", fmt.Sprint(cs.Bytes))
	t.AddRow("cache hits", fmt.Sprint(cs.Hits))
	t.AddRow("cache misses", fmt.Sprint(cs.Misses))
	ratio := 0.0
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		ratio = float64(cs.Hits) / float64(lookups)
	}
	t.AddRow("cache hit ratio", fmt.Sprintf("%.3f", ratio))
	t.AddRow("coalesced", fmt.Sprint(cs.Coalesced))
	t.AddRow("evictions", fmt.Sprint(cs.Evictions))
	t.AddRow("ready", fmt.Sprint(s.ready.Load()))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t.Render(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g := GaugeSnapshot{
		QueueDepth: s.manager.QueueDepth(),
		Running:    s.manager.Running(),
		Ready:      s.ready.Load(),
		Cache:      s.cache.Stats(),
	}
	if s.cluster != nil {
		g.ClusterHealthy, g.ClusterWorkers = s.cluster.healthyCount()
		g.Breakers = s.cluster.breakerStates()
	}
	s.metrics.Render(w, g)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: flips to 503 the moment a drain begins, while
// the listener is still up — the load balancer's cue to route elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
