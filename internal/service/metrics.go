package service

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hgpart/internal/perf"
)

// metricsWindow bounds the ns/work-unit quantile sampler to the most recent
// executed runs.
const metricsWindow = 1024

// labelValues is one series' label values, in its family's label order.
// Families carry at most two labels.
type labelValues [2]string

// family is one Prometheus metric family: name, HELP text, TYPE, label
// names, and one value per label set. Counter families live in Metrics for
// the process lifetime; gauge families are built per scrape from a
// GaugeSnapshot and written through the same write.
type family struct {
	name, help, kind string
	labels           []string

	mu     sync.Mutex
	values map[labelValues]int64 //hglint:guardedby mu
}

func newFamily(kind, name, help string, labels ...string) *family {
	return &family{name: name, help: help, kind: kind, labels: labels, values: make(map[labelValues]int64)}
}

// add adds n to the series whose label values are vals (one per label).
func (f *family) add(n int64, vals ...string) {
	var k labelValues
	copy(k[:], vals)
	f.mu.Lock()
	f.values[k] += n
	f.mu.Unlock()
}

// get returns an unlabelled family's current value.
func (f *family) get() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.values[labelValues{}]
}

// write appends the HELP/TYPE header and every series, sorted by label
// values. An unlabelled family always prints its value, even 0.
func (f *family) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.labels) == 0 {
		fmt.Fprintf(b, "%s %d\n", f.name, f.values[labelValues{}])
		return
	}
	keys := make([]labelValues, 0, len(f.values))
	for k := range f.values {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y labelValues) int {
		return cmp.Or(strings.Compare(x[0], y[0]), strings.Compare(x[1], y[1]))
	})
	for _, k := range keys {
		b.WriteString(f.name)
		sep := "{"
		for i, l := range f.labels {
			b.WriteString(sep + l + "=" + strconv.Quote(k[i]))
			sep = ","
		}
		fmt.Fprintf(b, "} %d\n", f.values[k])
	}
}

// Metrics is the service's observability surface, rendered in Prometheus
// text exposition format at /metrics. It is hand-rolled — the repository
// adds no dependencies — and deliberately tiny: counter families, gauges
// read at scrape time, and ns-per-work-unit quantiles from a bounded
// perf.Sampler window (the serving-time analogue of hgbench's ns/move).
type Metrics struct {
	requests, submitted, finished, watchdogKicks, requeued  *family
	peerHits, dispatches, failovers, steals, localFallbacks *family
	netFaults, integrityFailures, deadlineAbandons          *family
	portfolioRaces, portfolioWins, workUnits                *family

	// nsPerWork samples wall-nanoseconds per deterministic work unit for
	// every executed run; quantiles expose serving-speed drift the same way
	// hgbench's ns/move exposes benchmark drift.
	nsPerWork *perf.Sampler
}

// NewMetrics builds the registry: every counter family is declared here,
// once. Cluster counters stay zero on single-node daemons; the net-chaos
// and integrity families are DESIGN.md §16's, the portfolio ones §15's.
func NewMetrics() *Metrics {
	counter := func(name, help string, labels ...string) *family {
		return newFamily("counter", name, help, labels...)
	}
	return &Metrics{
		requests:          counter("hgserved_requests_total", "HTTP requests by route and status code.", "route", "code"),
		submitted:         counter("hgserved_jobs_submitted_total", "Jobs accepted into the queue."),
		finished:          counter("hgserved_jobs_finished_total", "Jobs reaching a terminal state.", "state"),
		watchdogKicks:     counter("hgserved_watchdog_kicks_total", "Stalled runs cancelled by the progress watchdog."),
		requeued:          counter("hgserved_jobs_requeued_total", "Stuck jobs requeued by the watchdog for another attempt."),
		peerHits:          counter("hgserved_peer_cache_hits_total", "Reports served from a sibling worker's cache."),
		dispatches:        counter("hgserved_cluster_dispatches_total", "Job dispatch RPCs sent to workers."),
		failovers:         counter("hgserved_cluster_failovers_total", "Jobs reassigned off a dead worker."),
		steals:            counter("hgserved_cluster_steals_total", "Queued jobs stolen by idle workers."),
		localFallbacks:    counter("hgserved_cluster_local_fallbacks_total", "Jobs degraded to a local compute (no healthy workers)."),
		netFaults:         counter("hgserved_net_faults_injected_total", "Faults injected by the chaos net transport, by fault kind.", "fault"),
		integrityFailures: counter("hgserved_integrity_failures_total", "Internal responses failing the sha256 body envelope, by source.", "source"),
		deadlineAbandons:  counter("hgserved_deadline_abandons_total", "Jobs abandoned because the coordinator's propagated deadline passed."),
		portfolioRaces:    counter("hgserved_portfolio_races_total", "Portfolio-mode races run."),
		portfolioWins:     counter("hgserved_portfolio_arm_wins_total", "Race wins by feature bucket and arm.", "bucket", "arm"),
		workUnits:         counter("hgserved_work_units_total", "Deterministic FM work units executed."),
		nsPerWork:         perf.NewSampler(metricsWindow),
	}
}

// ObserveRequest counts one HTTP request by route label and status code.
func (m *Metrics) ObserveRequest(route string, code int) {
	m.requests.add(1, route, strconv.Itoa(code))
}

// JobSubmitted counts one accepted job.
func (m *Metrics) JobSubmitted() { m.submitted.add(1) }

// JobFinished counts one terminal job transition.
func (m *Metrics) JobFinished(state JobState) { m.finished.add(1, string(state)) }

// WatchdogKick counts one watchdog cancellation of a stalled run.
func (m *Metrics) WatchdogKick() { m.watchdogKicks.add(1) }

// JobRequeued counts one watchdog-driven requeue of a stuck job.
func (m *Metrics) JobRequeued() { m.requeued.add(1) }

// PeerHit counts one report served from a sibling worker's cache.
func (m *Metrics) PeerHit() { m.peerHits.add(1) }

// ClusterDispatch counts one job dispatch RPC to a worker.
func (m *Metrics) ClusterDispatch() { m.dispatches.add(1) }

// ClusterFailover counts one job reassigned off a dead worker.
func (m *Metrics) ClusterFailover() { m.failovers.add(1) }

// ClusterSteal counts one queued job stolen by an idle worker's dispatcher.
func (m *Metrics) ClusterSteal() { m.steals.add(1) }

// ClusterLocalFallback counts one job degraded to a local compute because
// no healthy worker remained (or a job bounced too often).
func (m *Metrics) ClusterLocalFallback() { m.localFallbacks.add(1) }

// NetFaultInjected counts one fault the chaos transport injected, by the
// fault's spec-grammar name ("refused", "corrupt", ...).
func (m *Metrics) NetFaultInjected(fault string) { m.netFaults.add(1, fault) }

// IntegrityFailure counts one internal response whose body failed the
// sha256 envelope check; source is "peer" or "dispatch".
func (m *Metrics) IntegrityFailure(source string) { m.integrityFailures.add(1, source) }

// DeadlineAbandon counts one job abandoned because the coordinator's
// propagated X-Hg-Deadline had passed.
func (m *Metrics) DeadlineAbandon() { m.deadlineAbandons.add(1) }

// PortfolioRace counts one mode=portfolio race and which (bucket, arm) pair
// won it — the observed per-bucket ranking (DESIGN.md §15).
func (m *Metrics) PortfolioRace(bucket, winner string) {
	m.portfolioRaces.add(1)
	m.portfolioWins.add(1, bucket, winner)
}

// ObserveRun records one executed multistart: wall time and deterministic
// work, feeding the ns/work quantiles and the work-unit throughput counter.
func (m *Metrics) ObserveRun(elapsed time.Duration, work int64) {
	m.workUnits.add(work)
	if work > 0 {
		m.nsPerWork.Observe(float64(elapsed.Nanoseconds()) / float64(work))
	}
}

// GaugeSnapshot carries the gauges that live elsewhere (queue depth,
// running jobs, cache state, readiness) into Render, so Metrics has no
// back-pointer into the server.
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

// Render writes all metrics in Prometheus text format, series sorted so
// consecutive scrapes differ only in values. The exposition is built in a
// buffer first, so no lock is held while writing to w.
func (m *Metrics) Render(w io.Writer, g GaugeSnapshot) {
	scraped := func(kind, name, help string, v int64) *family {
		f := newFamily(kind, name, help)
		f.add(v)
		return f
	}
	ready := int64(0)
	if g.Ready {
		ready = 1
	}
	breakers := newFamily("gauge", "hgserved_breaker_state", "Per-worker circuit breaker state (0 closed, 1 half-open, 2 open).", "worker")
	for addr, state := range g.Breakers {
		breakers.add(int64(state), addr)
	}

	var b bytes.Buffer
	for _, f := range []*family{
		m.requests, m.submitted, m.finished, m.watchdogKicks, m.requeued,
		scraped("gauge", "hgserved_queue_depth", "Jobs waiting in the priority queue.", int64(g.QueueDepth)),
		scraped("gauge", "hgserved_running_jobs", "Jobs currently executing.", int64(g.Running)),
		scraped("gauge", "hgserved_ready", "Whether the service accepts new work (drain flips to 0).", ready),
		scraped("counter", "hgserved_cache_hits_total", "Result-cache hits.", g.Cache.Hits),
		scraped("counter", "hgserved_cache_misses_total", "Result-cache misses (one per computed report).", g.Cache.Misses),
		scraped("counter", "hgserved_cache_coalesced_total", "Requests coalesced onto an in-flight identical job.", g.Cache.Coalesced),
		scraped("counter", "hgserved_cache_evictions_total", "LRU evictions from the result cache.", g.Cache.Evictions),
		scraped("gauge", "hgserved_cache_entries", "Result-cache resident entries.", int64(g.Cache.Entries)),
		scraped("gauge", "hgserved_cache_bytes", "Result-cache resident body bytes.", g.Cache.Bytes),
		m.peerHits, m.dispatches, m.failovers, m.steals, m.localFallbacks,
		scraped("gauge", "hgserved_cluster_workers", "Configured cluster workers (coordinator mode).", int64(g.ClusterWorkers)),
		scraped("gauge", "hgserved_cluster_workers_healthy", "Workers currently passing heartbeats.", int64(g.ClusterHealthy)),
		m.netFaults, m.integrityFailures, breakers, m.deadlineAbandons,
		m.portfolioRaces, m.portfolioWins, m.workUnits,
	} {
		f.write(&b)
	}

	b.WriteString("# HELP hgserved_ns_per_work_unit Wall nanoseconds per deterministic work unit, recent-window quantiles.\n")
	b.WriteString("# TYPE hgserved_ns_per_work_unit summary\n")
	qs := []float64{0.5, 0.9, 0.99}
	for i, v := range m.nsPerWork.Quantiles(qs...) {
		if !math.IsNaN(v) {
			fmt.Fprintf(&b, "hgserved_ns_per_work_unit{quantile=\"%g\"} %g\n", qs[i], v)
		}
	}
	fmt.Fprintf(&b, "hgserved_ns_per_work_unit_count %d\n", m.nsPerWork.Count())
	w.Write(b.Bytes())
}
