package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"hgpart/internal/perf"
)

// Metrics is the service's observability surface, rendered in Prometheus
// text exposition format at /metrics. It is hand-rolled — the repository
// adds no dependencies — and deliberately tiny: counters, gauges read at
// scrape time, and ns-per-work-unit quantiles from a bounded perf.Sampler
// window (the serving-time analogue of hgbench's ns/move).
type reqKey struct {
	route string
	code  int
}

// armKey labels one portfolio arm-win counter series.
type armKey struct {
	bucket string
	arm    string
}

type Metrics struct {
	mu            sync.Mutex
	requests      map[reqKey]int64   //hglint:guardedby mu
	submitted     int64              //hglint:guardedby mu
	finished      map[JobState]int64 //hglint:guardedby mu
	workUnits     int64              //hglint:guardedby mu
	watchdogKicks int64              //hglint:guardedby mu
	requeued      int64              //hglint:guardedby mu

	// cluster/peering counters; zero (and harmless) on single-node daemons.
	peerHits       int64 //hglint:guardedby mu
	dispatches     int64 //hglint:guardedby mu
	failovers      int64 //hglint:guardedby mu
	steals         int64 //hglint:guardedby mu
	localFallbacks int64 //hglint:guardedby mu

	// portfolio-mode counters: races run and wins per (feature bucket, arm)
	// pair — the observed per-bucket ranking (DESIGN.md §15).
	portfolioRaces int64            //hglint:guardedby mu
	portfolioWins  map[armKey]int64 //hglint:guardedby mu

	// net-chaos / RPC-integrity counters (DESIGN.md §16): faults the chaos
	// transport injected by kind, internal responses that failed the sha256
	// envelope by source ("peer" or "dispatch"), and jobs abandoned because
	// the coordinator's propagated deadline passed.
	netFaults         map[string]int64 //hglint:guardedby mu
	integrityFailures map[string]int64 //hglint:guardedby mu
	deadlineAbandons  int64            //hglint:guardedby mu

	// nsPerWork samples wall-nanoseconds per deterministic work unit for
	// every executed run; quantiles expose serving-speed drift the same way
	// hgbench's ns/move exposes benchmark drift.
	nsPerWork *perf.Sampler
}

// NewMetrics builds the registry. window bounds the ns/work sampler.
func NewMetrics(window int) *Metrics {
	return &Metrics{
		requests:          make(map[reqKey]int64),
		finished:          make(map[JobState]int64),
		portfolioWins:     make(map[armKey]int64),
		netFaults:         make(map[string]int64),
		integrityFailures: make(map[string]int64),
		nsPerWork:         perf.NewSampler(window),
	}
}

// ObserveRequest counts one HTTP request by route label and status code.
func (m *Metrics) ObserveRequest(route string, code int) {
	m.mu.Lock()
	m.requests[reqKey{route, code}]++
	m.mu.Unlock()
}

// JobSubmitted counts one accepted job.
func (m *Metrics) JobSubmitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

// JobFinished counts one terminal job transition.
func (m *Metrics) JobFinished(state JobState) {
	m.mu.Lock()
	m.finished[state]++
	m.mu.Unlock()
}

// WatchdogKick counts one watchdog cancellation of a stalled run.
func (m *Metrics) WatchdogKick() {
	m.mu.Lock()
	m.watchdogKicks++
	m.mu.Unlock()
}

// JobRequeued counts one watchdog-driven requeue of a stuck job.
func (m *Metrics) JobRequeued() {
	m.mu.Lock()
	m.requeued++
	m.mu.Unlock()
}

// PeerHit counts one report served from a sibling worker's cache.
func (m *Metrics) PeerHit() {
	m.mu.Lock()
	m.peerHits++
	m.mu.Unlock()
}

// ClusterDispatch counts one job dispatch RPC to a worker.
func (m *Metrics) ClusterDispatch() {
	m.mu.Lock()
	m.dispatches++
	m.mu.Unlock()
}

// ClusterFailover counts one job reassigned off a dead worker.
func (m *Metrics) ClusterFailover() {
	m.mu.Lock()
	m.failovers++
	m.mu.Unlock()
}

// ClusterSteal counts one queued job stolen by an idle worker's dispatcher.
func (m *Metrics) ClusterSteal() {
	m.mu.Lock()
	m.steals++
	m.mu.Unlock()
}

// ClusterLocalFallback counts one job degraded to a local compute because
// no healthy worker remained (or a job bounced too often).
func (m *Metrics) ClusterLocalFallback() {
	m.mu.Lock()
	m.localFallbacks++
	m.mu.Unlock()
}

// NetFaultInjected counts one fault the chaos transport injected, by the
// fault's spec-grammar name ("refused", "corrupt", ...).
func (m *Metrics) NetFaultInjected(fault string) {
	m.mu.Lock()
	m.netFaults[fault]++
	m.mu.Unlock()
}

// IntegrityFailure counts one internal response whose body failed the
// sha256 envelope check; source is "peer" or "dispatch".
func (m *Metrics) IntegrityFailure(source string) {
	m.mu.Lock()
	m.integrityFailures[source]++
	m.mu.Unlock()
}

// DeadlineAbandon counts one job abandoned because the coordinator's
// propagated X-Hg-Deadline had passed.
func (m *Metrics) DeadlineAbandon() {
	m.mu.Lock()
	m.deadlineAbandons++
	m.mu.Unlock()
}

// PortfolioRace counts one mode=portfolio race and which (bucket, arm) pair
// won it.
func (m *Metrics) PortfolioRace(bucket, winner string) {
	m.mu.Lock()
	m.portfolioRaces++
	m.portfolioWins[armKey{bucket, winner}]++
	m.mu.Unlock()
}

// ObserveRun records one executed multistart: wall time and deterministic
// work, feeding the ns/work quantiles and the work-unit throughput counter.
func (m *Metrics) ObserveRun(elapsed time.Duration, work int64) {
	m.mu.Lock()
	m.workUnits += work
	m.mu.Unlock()
	if work > 0 {
		m.nsPerWork.Observe(float64(elapsed.Nanoseconds()) / float64(work))
	}
}

// Render writes the exposition text. Gauges that live elsewhere (queue
// depth, running jobs, cache state, readiness) are read through the
// supplied snapshot so Metrics has no back-pointer into the server.
type GaugeSnapshot struct {
	QueueDepth int
	Running    int
	Ready      bool
	Cache      CacheStats
	// ClusterWorkers/ClusterHealthy describe the coordinator's fleet view;
	// both zero on non-coordinator nodes.
	ClusterWorkers int
	ClusterHealthy int
	// Breakers maps worker address to circuit-breaker state (0 closed,
	// 1 half-open, 2 open); nil on non-coordinator nodes.
	Breakers map[string]int
}

// Render writes all metrics in Prometheus text format, keys sorted so
// consecutive scrapes differ only in values.
func (m *Metrics) Render(w io.Writer, g GaugeSnapshot) {
	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	stateKeys := make([]string, 0, len(m.finished))
	for k := range m.finished {
		stateKeys = append(stateKeys, string(k))
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	sort.Strings(stateKeys)
	requests := make(map[reqKey]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	finished := make(map[string]int64, len(m.finished))
	for k, v := range m.finished {
		finished[string(k)] = v
	}
	submitted, workUnits := m.submitted, m.workUnits
	kicks, requeued := m.watchdogKicks, m.requeued
	peerHits, dispatches := m.peerHits, m.dispatches
	failovers, steals, localFallbacks := m.failovers, m.steals, m.localFallbacks
	portfolioRaces := m.portfolioRaces
	deadlineAbandons := m.deadlineAbandons
	faultKeys := make([]string, 0, len(m.netFaults))
	for k := range m.netFaults {
		faultKeys = append(faultKeys, k)
	}
	sort.Strings(faultKeys)
	netFaults := make(map[string]int64, len(m.netFaults))
	for k, v := range m.netFaults {
		netFaults[k] = v
	}
	integrityKeys := make([]string, 0, len(m.integrityFailures))
	for k := range m.integrityFailures {
		integrityKeys = append(integrityKeys, k)
	}
	sort.Strings(integrityKeys)
	integrityFailures := make(map[string]int64, len(m.integrityFailures))
	for k, v := range m.integrityFailures {
		integrityFailures[k] = v
	}
	winKeys := make([]armKey, 0, len(m.portfolioWins))
	for k := range m.portfolioWins {
		winKeys = append(winKeys, k)
	}
	sort.Slice(winKeys, func(i, j int) bool {
		if winKeys[i].bucket != winKeys[j].bucket {
			return winKeys[i].bucket < winKeys[j].bucket
		}
		return winKeys[i].arm < winKeys[j].arm
	})
	wins := make(map[armKey]int64, len(m.portfolioWins))
	for k, v := range m.portfolioWins {
		wins[k] = v
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP hgserved_requests_total HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE hgserved_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "hgserved_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, requests[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_jobs_submitted_total Jobs accepted into the queue.")
	fmt.Fprintln(w, "# TYPE hgserved_jobs_submitted_total counter")
	fmt.Fprintf(w, "hgserved_jobs_submitted_total %d\n", submitted)

	fmt.Fprintln(w, "# HELP hgserved_jobs_finished_total Jobs reaching a terminal state.")
	fmt.Fprintln(w, "# TYPE hgserved_jobs_finished_total counter")
	for _, k := range stateKeys {
		fmt.Fprintf(w, "hgserved_jobs_finished_total{state=%q} %d\n", k, finished[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_watchdog_kicks_total Stalled runs cancelled by the progress watchdog.")
	fmt.Fprintln(w, "# TYPE hgserved_watchdog_kicks_total counter")
	fmt.Fprintf(w, "hgserved_watchdog_kicks_total %d\n", kicks)

	fmt.Fprintln(w, "# HELP hgserved_jobs_requeued_total Stuck jobs requeued by the watchdog for another attempt.")
	fmt.Fprintln(w, "# TYPE hgserved_jobs_requeued_total counter")
	fmt.Fprintf(w, "hgserved_jobs_requeued_total %d\n", requeued)

	fmt.Fprintln(w, "# HELP hgserved_queue_depth Jobs waiting in the priority queue.")
	fmt.Fprintln(w, "# TYPE hgserved_queue_depth gauge")
	fmt.Fprintf(w, "hgserved_queue_depth %d\n", g.QueueDepth)

	fmt.Fprintln(w, "# HELP hgserved_running_jobs Jobs currently executing.")
	fmt.Fprintln(w, "# TYPE hgserved_running_jobs gauge")
	fmt.Fprintf(w, "hgserved_running_jobs %d\n", g.Running)

	fmt.Fprintln(w, "# HELP hgserved_ready Whether the service accepts new work (drain flips to 0).")
	fmt.Fprintln(w, "# TYPE hgserved_ready gauge")
	ready := 0
	if g.Ready {
		ready = 1
	}
	fmt.Fprintf(w, "hgserved_ready %d\n", ready)

	fmt.Fprintln(w, "# HELP hgserved_cache_hits_total Result-cache hits.")
	fmt.Fprintln(w, "# TYPE hgserved_cache_hits_total counter")
	fmt.Fprintf(w, "hgserved_cache_hits_total %d\n", g.Cache.Hits)
	fmt.Fprintln(w, "# HELP hgserved_cache_misses_total Result-cache misses (one per computed report).")
	fmt.Fprintln(w, "# TYPE hgserved_cache_misses_total counter")
	fmt.Fprintf(w, "hgserved_cache_misses_total %d\n", g.Cache.Misses)
	fmt.Fprintln(w, "# HELP hgserved_cache_coalesced_total Requests coalesced onto an in-flight identical job.")
	fmt.Fprintln(w, "# TYPE hgserved_cache_coalesced_total counter")
	fmt.Fprintf(w, "hgserved_cache_coalesced_total %d\n", g.Cache.Coalesced)
	fmt.Fprintln(w, "# HELP hgserved_cache_evictions_total LRU evictions from the result cache.")
	fmt.Fprintln(w, "# TYPE hgserved_cache_evictions_total counter")
	fmt.Fprintf(w, "hgserved_cache_evictions_total %d\n", g.Cache.Evictions)
	fmt.Fprintln(w, "# HELP hgserved_cache_entries Result-cache resident entries.")
	fmt.Fprintln(w, "# TYPE hgserved_cache_entries gauge")
	fmt.Fprintf(w, "hgserved_cache_entries %d\n", g.Cache.Entries)
	fmt.Fprintln(w, "# HELP hgserved_cache_bytes Result-cache resident body bytes.")
	fmt.Fprintln(w, "# TYPE hgserved_cache_bytes gauge")
	fmt.Fprintf(w, "hgserved_cache_bytes %d\n", g.Cache.Bytes)

	fmt.Fprintln(w, "# HELP hgserved_peer_cache_hits_total Reports served from a sibling worker's cache.")
	fmt.Fprintln(w, "# TYPE hgserved_peer_cache_hits_total counter")
	fmt.Fprintf(w, "hgserved_peer_cache_hits_total %d\n", peerHits)

	fmt.Fprintln(w, "# HELP hgserved_cluster_dispatches_total Job dispatch RPCs sent to workers.")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_dispatches_total counter")
	fmt.Fprintf(w, "hgserved_cluster_dispatches_total %d\n", dispatches)

	fmt.Fprintln(w, "# HELP hgserved_cluster_failovers_total Jobs reassigned off a dead worker.")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_failovers_total counter")
	fmt.Fprintf(w, "hgserved_cluster_failovers_total %d\n", failovers)

	fmt.Fprintln(w, "# HELP hgserved_cluster_steals_total Queued jobs stolen by idle workers.")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_steals_total counter")
	fmt.Fprintf(w, "hgserved_cluster_steals_total %d\n", steals)

	fmt.Fprintln(w, "# HELP hgserved_cluster_local_fallbacks_total Jobs degraded to a local compute (no healthy workers).")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_local_fallbacks_total counter")
	fmt.Fprintf(w, "hgserved_cluster_local_fallbacks_total %d\n", localFallbacks)

	fmt.Fprintln(w, "# HELP hgserved_cluster_workers Configured cluster workers (coordinator mode).")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_workers gauge")
	fmt.Fprintf(w, "hgserved_cluster_workers %d\n", g.ClusterWorkers)

	fmt.Fprintln(w, "# HELP hgserved_cluster_workers_healthy Workers currently passing heartbeats.")
	fmt.Fprintln(w, "# TYPE hgserved_cluster_workers_healthy gauge")
	fmt.Fprintf(w, "hgserved_cluster_workers_healthy %d\n", g.ClusterHealthy)

	fmt.Fprintln(w, "# HELP hgserved_net_faults_injected_total Faults injected by the chaos net transport, by fault kind.")
	fmt.Fprintln(w, "# TYPE hgserved_net_faults_injected_total counter")
	for _, k := range faultKeys {
		fmt.Fprintf(w, "hgserved_net_faults_injected_total{fault=%q} %d\n", k, netFaults[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_integrity_failures_total Internal responses failing the sha256 body envelope, by source.")
	fmt.Fprintln(w, "# TYPE hgserved_integrity_failures_total counter")
	for _, k := range integrityKeys {
		fmt.Fprintf(w, "hgserved_integrity_failures_total{source=%q} %d\n", k, integrityFailures[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_breaker_state Per-worker circuit breaker state (0 closed, 1 half-open, 2 open).")
	fmt.Fprintln(w, "# TYPE hgserved_breaker_state gauge")
	breakerKeys := make([]string, 0, len(g.Breakers))
	for k := range g.Breakers {
		breakerKeys = append(breakerKeys, k)
	}
	sort.Strings(breakerKeys)
	for _, k := range breakerKeys {
		fmt.Fprintf(w, "hgserved_breaker_state{worker=%q} %d\n", k, g.Breakers[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_deadline_abandons_total Jobs abandoned because the coordinator's propagated deadline passed.")
	fmt.Fprintln(w, "# TYPE hgserved_deadline_abandons_total counter")
	fmt.Fprintf(w, "hgserved_deadline_abandons_total %d\n", deadlineAbandons)

	fmt.Fprintln(w, "# HELP hgserved_portfolio_races_total Portfolio-mode races run.")
	fmt.Fprintln(w, "# TYPE hgserved_portfolio_races_total counter")
	fmt.Fprintf(w, "hgserved_portfolio_races_total %d\n", portfolioRaces)

	fmt.Fprintln(w, "# HELP hgserved_portfolio_arm_wins_total Race wins by feature bucket and arm.")
	fmt.Fprintln(w, "# TYPE hgserved_portfolio_arm_wins_total counter")
	for _, k := range winKeys {
		fmt.Fprintf(w, "hgserved_portfolio_arm_wins_total{bucket=%q,arm=%q} %d\n", k.bucket, k.arm, wins[k])
	}

	fmt.Fprintln(w, "# HELP hgserved_work_units_total Deterministic FM work units executed.")
	fmt.Fprintln(w, "# TYPE hgserved_work_units_total counter")
	fmt.Fprintf(w, "hgserved_work_units_total %d\n", workUnits)

	fmt.Fprintln(w, "# HELP hgserved_ns_per_work_unit Wall nanoseconds per deterministic work unit, recent-window quantiles.")
	fmt.Fprintln(w, "# TYPE hgserved_ns_per_work_unit summary")
	qs := m.nsPerWork.Quantiles(0.5, 0.9, 0.99)
	labels := []string{"0.5", "0.9", "0.99"}
	for i, q := range qs {
		if math.IsNaN(q) {
			continue
		}
		fmt.Fprintf(w, "hgserved_ns_per_work_unit{quantile=%q} %g\n", labels[i], q)
	}
	fmt.Fprintf(w, "hgserved_ns_per_work_unit_count %d\n", m.nsPerWork.Count())
}
