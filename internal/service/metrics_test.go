package service_test

import (
	"bytes"
	"os"
	"path/filepath"
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
	m := service.NewMetrics(16)
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
