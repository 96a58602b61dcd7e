package service_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hgpart/internal/service"
)

// TestMetricsRenderGolden pins the whole /metrics exposition — HELP/TYPE
// text, series order, label order and value formatting — byte for byte.
// Every mutator runs a distinct, fixed number of times so a series that
// reads the wrong counter shows up as a wrong value. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestMetricsRenderGolden ./internal/service.
func TestMetricsRenderGolden(t *testing.T) {
	m := service.NewMetrics()
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	repeat(3, func() { m.ObserveRequest("partition", 200) })
	repeat(2, func() { m.ObserveRequest("partition", 422) })
	repeat(1, func() { m.ObserveRequest("jobs", 404) })
	repeat(7, m.JobSubmitted)
	repeat(4, func() { m.JobFinished(service.JobDone) })
	repeat(2, func() { m.JobFinished(service.JobFailed) })
	repeat(1, func() { m.JobFinished(service.JobCanceled) })
	repeat(2, m.WatchdogKick)
	repeat(1, m.JobRequeued)
	repeat(3, m.PeerHit)
	repeat(5, m.ClusterDispatch)
	repeat(2, m.ClusterFailover)
	repeat(4, m.ClusterSteal)
	repeat(1, m.ClusterLocalFallback)
	repeat(3, func() { m.NetFaultInjected("refused") })
	repeat(1, func() { m.NetFaultInjected("corrupt") })
	repeat(2, func() { m.IntegrityFailure("peer") })
	repeat(1, func() { m.IntegrityFailure("dispatch") })
	repeat(3, m.DeadlineAbandon)
	repeat(2, func() { m.PortfolioRace("s0.n0.k2.g1", "ml-strong") })
	repeat(1, func() { m.PortfolioRace("s0.n0.k2.g1", "flat-lifo") })
	repeat(1, func() { m.PortfolioRace("s1.n2.k0.g0", "clip-guarded") })
	m.ObserveRun(2*time.Millisecond, 1000)
	m.ObserveRun(3*time.Millisecond, 1000)
	m.ObserveRun(5*time.Millisecond, 2000)
	m.ObserveRun(time.Millisecond, 0) // no work: counts nothing

	var buf bytes.Buffer
	m.Render(&buf, service.GaugeSnapshot{
		QueueDepth: 3,
		Running:    2,
		Ready:      true,
		Cache: service.CacheStats{
			Entries: 5, Bytes: 4096, Hits: 11, Misses: 6, Coalesced: 2, Evictions: 1,
		},
		ClusterWorkers: 2,
		ClusterHealthy: 1,
		Breakers:       map[string]int{"w2:9001": 2, "w1:9001": 0},
	})

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("/metrics exposition drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestMetricsConcurrentRender calls every mutator from 8 goroutines while
// another goroutine renders in a loop. The final exposition must show the
// exact totals: equal to a single goroutine making the same calls, with the
// per-series counts spelled out.
func TestMetricsConcurrentRender(t *testing.T) {
	const goroutines, rounds = 8, 250
	exercise := func(m *service.Metrics) {
		m.ObserveRequest("partition", 200)
		m.ObserveRequest("jobs", 404)
		m.JobSubmitted()
		m.JobFinished(service.JobDone)
		m.WatchdogKick()
		m.JobRequeued()
		m.PeerHit()
		m.ClusterDispatch()
		m.ClusterFailover()
		m.ClusterSteal()
		m.ClusterLocalFallback()
		m.NetFaultInjected("refused")
		m.IntegrityFailure("peer")
		m.DeadlineAbandon()
		m.PortfolioRace("s0.n0.k2.g1", "ml-strong")
		m.ObserveRun(2*time.Millisecond, 1000)
	}
	gauges := service.GaugeSnapshot{Ready: true, Breakers: map[string]int{"w1:9001": 1}}

	m := service.NewMetrics()
	stop, rendered := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				m.Render(io.Discard, gauges)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				exercise(m)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rendered

	seq := service.NewMetrics()
	for i := 0; i < goroutines*rounds; i++ {
		exercise(seq)
	}
	var got, want bytes.Buffer
	m.Render(&got, gauges)
	seq.Render(&want, gauges)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("concurrent totals differ from sequential ones:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
	n := goroutines * rounds
	for _, line := range []string{
		fmt.Sprintf(`hgserved_requests_total{route="jobs",code="404"} %d`, n),
		fmt.Sprintf(`hgserved_requests_total{route="partition",code="200"} %d`, n),
		fmt.Sprintf("hgserved_jobs_submitted_total %d", n),
		fmt.Sprintf(`hgserved_jobs_finished_total{state="done"} %d`, n),
		fmt.Sprintf("hgserved_watchdog_kicks_total %d", n),
		fmt.Sprintf("hgserved_jobs_requeued_total %d", n),
		fmt.Sprintf("hgserved_peer_cache_hits_total %d", n),
		fmt.Sprintf("hgserved_cluster_dispatches_total %d", n),
		fmt.Sprintf("hgserved_cluster_failovers_total %d", n),
		fmt.Sprintf("hgserved_cluster_steals_total %d", n),
		fmt.Sprintf("hgserved_cluster_local_fallbacks_total %d", n),
		fmt.Sprintf(`hgserved_net_faults_injected_total{fault="refused"} %d`, n),
		fmt.Sprintf(`hgserved_integrity_failures_total{source="peer"} %d`, n),
		fmt.Sprintf("hgserved_deadline_abandons_total %d", n),
		fmt.Sprintf("hgserved_portfolio_races_total %d", n),
		fmt.Sprintf(`hgserved_portfolio_arm_wins_total{bucket="s0.n0.k2.g1",arm="ml-strong"} %d`, n),
		fmt.Sprintf("hgserved_work_units_total %d", 1000*n),
		`hgserved_ns_per_work_unit{quantile="0.5"} 2000`,
		fmt.Sprintf("hgserved_ns_per_work_unit_count %d", n),
	} {
		if !strings.Contains(got.String(), line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
}
