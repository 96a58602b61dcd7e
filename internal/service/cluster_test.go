package service_test

// Coordinator/worker cluster tests over httptest servers: routing through a
// real worker, graceful degradation to local compute against a dead fleet,
// peer cache probing with fall-through, and the singleflight waiter-cancel
// discipline. The SIGKILL/restart variants live in cmd/hgchaos; these cover
// the same contracts at unit scale.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hgpart/internal/service"
)

// deadAddr reserves a loopback port and releases it, yielding an address
// that refuses connections promptly.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitClusterHealthy polls GET /v1/cluster until the healthy worker count
// matches, so tests don't race the heartbeat prober.
func waitClusterHealthy(t *testing.T, hs *httptest.Server, want int) service.ClusterStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st service.ClusterStatus
		if code := getJSON(t, hs, "/v1/cluster", &st); code != 200 {
			t.Fatalf("GET /v1/cluster: %d", code)
		}
		if st.Healthy == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %d healthy workers: %+v", want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A coordinator whose entire fleet is unreachable must still answer: the job
// computes locally (disposition "local-fallback"), the body is byte-identical
// to a single-node server's, and /v1/cluster reports the degradation.
func TestClusterDegradesToLocalCompute(t *testing.T) {
	_, single := testServer(t, nil)
	_, baseline := post(t, single, smallReq)

	w1, w2 := deadAddr(t), deadAddr(t)
	_, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           []string{w1, w2},
			HeartbeatInterval: 20 * time.Millisecond,
			DispatchRetries:   1,
			RetrySeed:         1,
		}
	})
	waitClusterHealthy(t, hs, 0)

	resp, body := post(t, hs, smallReq)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded coordinator: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Hgserved-Cache"); got != "local-fallback" {
		t.Fatalf("disposition %q, want local-fallback", got)
	}
	if !bytes.Equal(body, baseline) {
		t.Fatalf("degraded-mode body differs from single-node baseline:\n%s\nvs\n%s", body, baseline)
	}

	st := waitClusterHealthy(t, hs, 0)
	if st.Mode != "coordinator" || st.LocalFallbacks < 1 {
		t.Fatalf("cluster status %+v, want coordinator mode with >=1 local fallback", st)
	}
	// /v1/cluster and /metrics read one set of counters.
	metrics := getText(t, hs, "/metrics")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"hgserved_cluster_local_fallbacks_total", st.LocalFallbacks},
		{"hgserved_cluster_steals_total", st.Steals},
		{"hgserved_cluster_failovers_total", st.Failovers},
	} {
		if line := fmt.Sprintf("%s %d\n", c.name, c.v); !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q matching /v1/cluster %+v:\n%s", line, st, metrics)
		}
	}
}

// Routing through a live worker: the coordinator's response is the worker's
// response verbatim (byte-identical to single-node), the coordinator caches
// it so a repeat is a coordinator-side hit, and status names the worker.
func TestClusterRoutesToWorker(t *testing.T) {
	_, single := testServer(t, nil)
	_, baseline := post(t, single, smallReq)

	_, worker := testServer(t, nil)
	workerAddr := strings.TrimPrefix(worker.URL, "http://")
	_, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           []string{workerAddr},
			HeartbeatInterval: 20 * time.Millisecond,
			RetrySeed:         1,
		}
	})
	waitClusterHealthy(t, hs, 1)

	resp, body := post(t, hs, smallReq)
	if resp.StatusCode != 200 {
		t.Fatalf("routed request: status %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, baseline) {
		t.Fatalf("routed body differs from single-node baseline:\n%s\nvs\n%s", body, baseline)
	}
	jobID := resp.Header.Get("X-Hgserved-Job")
	if !strings.HasPrefix(jobID, "c-") {
		t.Fatalf("X-Hgserved-Job = %q, want a coordinator job id", jobID)
	}
	var st struct {
		Worker string `json:"worker"`
		State  string `json:"state"`
	}
	if code := getJSON(t, hs, "/v1/jobs/"+jobID, &st); code != 200 {
		t.Fatalf("GET /v1/jobs/%s: %d", jobID, code)
	}
	if st.Worker != workerAddr || st.State != "done" {
		t.Fatalf("job status %+v, want done on worker %s", st, workerAddr)
	}

	resp2, body2 := post(t, hs, smallReq)
	if resp2.Header.Get("X-Hgserved-Cache") != "hit" || !bytes.Equal(body2, baseline) {
		t.Fatalf("repeat request: disposition %q, identical=%v; want coordinator cache hit",
			resp2.Header.Get("X-Hgserved-Cache"), bytes.Equal(body2, baseline))
	}
}

// Peer cache probing: a worker whose sibling already holds the result serves
// it with disposition "peer" and byte-identical bytes; dead or empty peers
// degrade silently to local compute — never an error.
func TestPeerCacheHitAndFallThrough(t *testing.T) {
	_, a := testServer(t, nil)
	respA, bodyA := post(t, a, smallReq)
	if respA.StatusCode != 200 {
		t.Fatalf("prime peer A: %d", respA.StatusCode)
	}
	aAddr := strings.TrimPrefix(a.URL, "http://")

	// B probes a dead sibling first, then A: the dead probe falls through and
	// the hit still lands.
	_, b := testServer(t, func(c *service.Config) {
		c.Peers = []string{deadAddr(t), aAddr}
		c.PeerTimeout = 200 * time.Millisecond
	})
	respB, bodyB := post(t, b, smallReq)
	if respB.StatusCode != 200 || respB.Header.Get("X-Hgserved-Cache") != "peer" {
		t.Fatalf("peer lookup: status %d disposition %q, want 200/peer",
			respB.StatusCode, respB.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(bodyB, bodyA) {
		t.Fatalf("peer-served body differs:\n%s\nvs\n%s", bodyB, bodyA)
	}

	// C has only a dead peer: the probe times out / refuses and C computes
	// locally — a miss, not a 5xx.
	_, cSrv := testServer(t, func(c *service.Config) {
		c.Peers = []string{deadAddr(t)}
		c.PeerTimeout = 50 * time.Millisecond
	})
	respC, bodyC := post(t, cSrv, smallReq)
	if respC.StatusCode != 200 || respC.Header.Get("X-Hgserved-Cache") != "miss" {
		t.Fatalf("dead-peer fall-through: status %d disposition %q, want 200/miss",
			respC.StatusCode, respC.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(bodyC, bodyA) {
		t.Fatalf("locally computed body differs from peer A's:\n%s\nvs\n%s", bodyC, bodyA)
	}
}

// Singleflight waiter-cancel regression (the audit behind DESIGN.md §12's
// waiter-detach rule): a coalesced waiter that cancels mid-flight detaches
// with its own 499 while the leader's job — whose context derives from the
// server, not any request — runs to completion, fills the cache, and leaves
// exactly one miss.
func TestSingleflightWaiterCancelDoesNotPoisonFlight(t *testing.T) {
	srv, hs := testServer(t, nil)
	// Slow enough that the waiter can join and cancel while the leader is
	// still computing.
	req := `{"benchmark":"ibm01","scale":0.25,"engine":"flat","starts":40,"seed":11}`

	leaderDone := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, body := post(t, hs, req)
		leaderDone <- struct {
			code int
			body []byte
		}{resp.StatusCode, body}
	}()

	// Wait for the leader's flight to open.
	deadline := time.Now().Add(5 * time.Second)
	for srv.CacheStats().Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader flight never opened")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The waiter coalesces onto the flight, then cancels.
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		hreq, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/partition", strings.NewReader(req))
		if err != nil {
			waiterErr <- err
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		waiterErr <- err
	}()
	for srv.CacheStats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the leader's flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-waiterErr; err == nil {
		t.Fatal("cancelled waiter should see its request aborted")
	}

	// The leader is unaffected by the waiter's departure.
	res := <-leaderDone
	if res.code != 200 {
		t.Fatalf("leader status %d after waiter cancel, body %s", res.code, res.body)
	}

	// The flight completed and cached: a third request is a pure hit and the
	// miss count never grew.
	resp, body := post(t, hs, req)
	if resp.Header.Get("X-Hgserved-Cache") != "hit" {
		t.Fatalf("post-flight disposition %q, want hit (flight must not be poisoned)",
			resp.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body, res.body) {
		t.Fatal("cached body differs from the leader's response")
	}
	if m := srv.CacheStats().Misses; m != 1 {
		t.Fatalf("misses = %d, want exactly 1: the cancelled waiter must not trigger recompute", m)
	}
}

// Regression: newCoordinator used to interleave unlocked c.health map writes
// with dispatcher/prober spawns, so worker N's entry was written while worker
// 1's already-running dispatchers read the same map under c.mu (sharedguard
// catches the shape statically; under the old code this test trips `make
// race` at boot). Post-fix every health entry is published before the first
// spawn, so a freshly booted coordinator already reports its whole,
// optimistically healthy fleet.
func TestClusterStartupPublishesHealthBeforeSpawn(t *testing.T) {
	workers := make([]string, 4)
	for i := range workers {
		workers[i] = deadAddr(t)
	}
	_, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           workers,
			HeartbeatInterval: time.Hour, // no probes: observe pure boot state
			DispatchPerWorker: 4,         // widen the old write/read race window
			DispatchRetries:   1,
			RetrySeed:         1,
		}
	})
	var st service.ClusterStatus
	if code := getJSON(t, hs, "/v1/cluster", &st); code != 200 {
		t.Fatalf("GET /v1/cluster: %d", code)
	}
	if st.Healthy != len(workers) || len(st.Workers) != len(workers) {
		t.Fatalf("boot status %+v, want all %d workers published and optimistically healthy",
			st, len(workers))
	}
}

// Regression: Submit bumped cj.dispatches holding only the coordinator lock,
// after registerLocked had already published the job to Job/Jobs readers that
// synchronize on cj.mu alone. The counter now takes cj.mu; the observable
// contract is that a job routed once reports zero requeues, and polling job
// status concurrently with fresh submissions stays clean under -race.
func TestClusterFirstDispatchCountsZeroRequeues(t *testing.T) {
	_, worker := testServer(t, nil)
	workerAddr := strings.TrimPrefix(worker.URL, "http://")
	_, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           []string{workerAddr},
			HeartbeatInterval: 20 * time.Millisecond,
			RetrySeed:         1,
		}
	})
	waitClusterHealthy(t, hs, 1)

	stop := make(chan struct{})
	donePolling := make(chan struct{})
	go func() {
		defer close(donePolling)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var jobs []service.JobStatus
			getJSON(t, hs, "/v1/jobs", &jobs)
		}
	}()
	for seed := 1; seed <= 3; seed++ {
		req := fmt.Sprintf(`{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":2,"seed":%d}`, seed)
		resp, body := post(t, hs, req)
		if resp.StatusCode != 200 {
			t.Fatalf("seed %d: status %d, body %s", seed, resp.StatusCode, body)
		}
		var st service.JobStatus
		if code := getJSON(t, hs, "/v1/jobs/"+resp.Header.Get("X-Hgserved-Job"), &st); code != 200 {
			t.Fatalf("seed %d: job status fetch failed with %d", seed, code)
		}
		if st.Requeues != 0 {
			t.Fatalf("seed %d: requeues = %d after a single clean dispatch, want 0", seed, st.Requeues)
		}
		if st.Worker != workerAddr {
			t.Fatalf("seed %d: worker = %q, want %q", seed, st.Worker, workerAddr)
		}
	}
	close(stop)
	<-donePolling
}
