package service_test

// Coordinator job lifecycle tests: a coordinator job is one Job in the
// Manager's one registry whether it is dispatched, queued for dispatch or
// computed locally, so it is counted once, listed once, cancellable through
// DELETE /v1/jobs/{id}, and drained like a queued local job.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hgpart/internal/service"
)

// slowWorker is a worker that parks every dispatch whose body contains
// block until the coordinator abandons the RPC, and serves every other
// request from a real single-node server. Each dispatched body is sent on
// the returned channel in arrival order.
func slowWorker(t *testing.T, block string) (addr string, seen <-chan []byte) {
	t.Helper()
	real, _ := testServer(t, nil)
	bodies := make(chan []byte, 16)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/partition" {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			bodies <- b
			if strings.Contains(string(b), block) {
				<-r.Context().Done()
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		real.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return strings.TrimPrefix(hs.URL, "http://"), bodies
}

// oneSlotCoordinator boots a coordinator over one worker with a single
// dispatcher, so a second job waits in the dispatch queue while the first
// is in flight.
func oneSlotCoordinator(t *testing.T, worker string) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           []string{worker},
			HeartbeatInterval: 20 * time.Millisecond,
			DispatchPerWorker: 1,
			RetrySeed:         1,
		}
	})
	waitClusterHealthy(t, hs, 1)
	return srv, hs
}

// seedReq is a small request distinguished by its seed.
func seedReq(seed int, async bool) string {
	return fmt.Sprintf(`{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":2,"seed":%d,"async":%v}`, seed, async)
}

// submitAsync posts an async request and returns its job id.
func submitAsync(t *testing.T, hs *httptest.Server, body string) string {
	t.Helper()
	var doc struct {
		Job string `json:"job"`
	}
	resp, b := post(t, hs, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Job == "" {
		t.Fatalf("async submit: no job id in %s (%v)", b, err)
	}
	return doc.Job
}

// postQueued posts a synchronous request that will wait in a dispatch
// queue, returning the queued job's id and a channel carrying the waiter's
// final HTTP status. The waiter detaches when the test ends, so a failed
// assertion cannot leave the coordinator's listener waiting on it.
func postQueued(t *testing.T, hs *httptest.Server, body string) (string, <-chan int) {
	t.Helper()
	var before []service.JobStatus
	getJSON(t, hs, "/v1/jobs", &before)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/partition", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var jobs []service.JobStatus
		getJSON(t, hs, "/v1/jobs", &jobs)
		if len(jobs) > len(before) && jobs[len(before)].State == service.JobQueued {
			return jobs[len(before)].ID, done
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never queued for dispatch: %+v", jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches state.
func waitJobState(t *testing.T, hs *httptest.Server, id string, state service.JobState) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st service.JobStatus
		if code := getJSON(t, hs, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d", id, code)
		}
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q: %+v", id, state, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deleteJob sends DELETE /v1/jobs/{id} and returns the status code.
func deleteJob(t *testing.T, hs *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/jobs/%s: %v", id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// metricLine asserts /metrics carries exactly the given series value.
func metricLine(t *testing.T, hs *httptest.Server, series string, v int) {
	t.Helper()
	metrics := getText(t, hs, "/metrics")
	if line := fmt.Sprintf("%s %d\n", series, v); !strings.Contains(metrics, line) {
		t.Errorf("/metrics lacks %q:\n%s", line, metrics)
	}
}

// A local fallback is the coordinator job itself running on the local pool,
// not a second job: one request is submitted once, finished once and listed
// once, and its remote_job names its own id.
func TestClusterLocalFallbackCountsOnce(t *testing.T) {
	_, hs := testServer(t, func(c *service.Config) {
		c.Cluster = service.ClusterConfig{
			Workers:           []string{deadAddr(t)},
			HeartbeatInterval: 20 * time.Millisecond,
			DispatchRetries:   1,
			RetrySeed:         1,
		}
	})
	waitClusterHealthy(t, hs, 0)

	resp, body := post(t, hs, smallReq)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hgserved-Cache") != "local-fallback" {
		t.Fatalf("status %d disposition %q, want 200/local-fallback; body %s",
			resp.StatusCode, resp.Header.Get("X-Hgserved-Cache"), body)
	}
	metricLine(t, hs, "hgserved_jobs_submitted_total", 1)
	metricLine(t, hs, `hgserved_jobs_finished_total{state="done"}`, 1)

	var jobs []service.JobStatus
	if code := getJSON(t, hs, "/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", code)
	}
	if len(jobs) != 1 {
		t.Fatalf("GET /v1/jobs listed %d jobs, want 1: %+v", len(jobs), jobs)
	}
	id := resp.Header.Get("X-Hgserved-Job")
	if st := jobs[0]; st.ID != id || st.Worker != "local" || st.RemoteJob != id || st.State != service.JobDone {
		t.Fatalf("listed job %+v, want %s done on worker local with remote_job %s", st, id, id)
	}
	var cs service.ClusterStatus
	if getJSON(t, hs, "/v1/cluster", &cs); cs.Jobs != 1 {
		t.Fatalf("/v1/cluster reports %d jobs, want 1", cs.Jobs)
	}
}

// DELETE reaches coordinator jobs: one waiting in a dispatch queue ends
// canceled with 409 and is never dispatched; one in flight has its RPC
// abandoned and ends canceled without a failover or a breaker trip.
func TestClusterCancelQueuedAndInFlight(t *testing.T) {
	worker, seen := slowWorker(t, `"seed":101`)
	_, hs := oneSlotCoordinator(t, worker)

	inflight := submitAsync(t, hs, seedReq(101, true))
	<-seen // the in-flight job holds the only dispatcher

	queued, queuedDone := postQueued(t, hs, seedReq(102, false))
	if code := deleteJob(t, hs, queued); code != http.StatusOK {
		t.Fatalf("DELETE queued coordinator job: %d, want 200", code)
	}
	if code := <-queuedDone; code != http.StatusConflict {
		t.Fatalf("waiter of the cancelled queued job got %d, want 409", code)
	}
	waitJobState(t, hs, queued, service.JobCanceled)

	if code := deleteJob(t, hs, inflight); code != http.StatusOK {
		t.Fatalf("DELETE in-flight coordinator job: %d, want 200", code)
	}
	waitJobState(t, hs, inflight, service.JobCanceled)

	// The freed dispatcher skips the cancelled queued job: the next body the
	// worker sees is a fresh request's, which routes and completes normally.
	resp, body := post(t, hs, seedReq(103, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d, body %s", resp.StatusCode, body)
	}
	if b := <-seen; !strings.Contains(string(b), `"seed":103`) {
		t.Fatalf("worker received %s after the cancels, want the seed-103 request", b)
	}

	var cs service.ClusterStatus
	getJSON(t, hs, "/v1/cluster", &cs)
	if cs.Failovers != 0 || cs.Workers[0].Breaker != "closed" {
		t.Fatalf("cluster after cancels %+v, want no failover and a closed breaker", cs)
	}
	metricLine(t, hs, `hgserved_jobs_finished_total{state="canceled"}`, 2)
}

// A drain ends a job waiting in a dispatch queue the way it ends a queued
// local job — canceled, 503 — and interrupts the in-flight dispatch; neither
// counts as failed.
func TestClusterDrainCancelsDispatchQueue(t *testing.T) {
	worker, seen := slowWorker(t, `"seed":`)
	srv, hs := oneSlotCoordinator(t, worker)

	inflight := submitAsync(t, hs, seedReq(201, true))
	<-seen
	queued, queuedDone := postQueued(t, hs, seedReq(202, false))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if code := <-queuedDone; code != http.StatusServiceUnavailable {
		t.Fatalf("waiter of the drained queued job got %d, want 503", code)
	}
	st := waitJobState(t, hs, queued, service.JobCanceled)
	if !strings.Contains(st.Error, "draining") {
		t.Fatalf("drained queued job error %q, want the drain message", st.Error)
	}
	waitJobState(t, hs, inflight, service.JobInterrupted)
	metricLine(t, hs, `hgserved_jobs_finished_total{state="canceled"}`, 1)
	metricLine(t, hs, `hgserved_jobs_finished_total{state="interrupted"}`, 1)
	if metrics := getText(t, hs, "/metrics"); strings.Contains(metrics, `state="failed"`) {
		t.Fatalf("a drain must not fail coordinator jobs:\n%s", metrics)
	}
}
