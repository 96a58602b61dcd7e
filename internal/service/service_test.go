package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hgpart/internal/gen"
	"hgpart/internal/netlist"
	"hgpart/internal/service"
)

// testServer boots a Server (with test-friendly defaults) behind httptest.
func testServer(t *testing.T, mutate func(*service.Config)) (*service.Server, *httptest.Server) {
	t.Helper()
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	cfg.StartWorkers = 2
	if mutate != nil {
		mutate(&cfg)
	}
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func post(t *testing.T, hs *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/partition: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, hs *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(hs.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// smallReq is a fast deterministic request used by most tests.
const smallReq = `{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":3,"seed":7}`

// TestDeterminismUnderLoad is the singleflight acceptance test: N concurrent
// identical requests yield byte-identical bodies with exactly one cache miss
// (the flight leader); every follower is coalesced or a hit.
func TestDeterminismUnderLoad(t *testing.T) {
	srv, hs := testServer(t, nil)
	// ~20 starts x ~10ms keeps the flight open long enough that all
	// submissions overlap the leader's computation.
	req := `{"benchmark":"ibm01","scale":0.25,"engine":"flat","starts":20,"seed":7}`
	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, body := post(t, hs, req)
			codes[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	stats := srv.CacheStats()
	if stats.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (hits %d, coalesced %d)",
			stats.Misses, stats.Hits, stats.Coalesced)
	}
	if stats.Hits+stats.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d followers", stats.Hits, stats.Coalesced, n-1)
	}

	// A later identical request is a pure cache hit, still byte-identical.
	resp, body := post(t, hs, req)
	if resp.Header.Get("X-Hgserved-Cache") != "hit" {
		t.Fatalf("post-flight request disposition %q, want hit", resp.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Fatalf("cached body differs from computed body")
	}
}

// TestByteIdenticalAcrossServers: the same request on two fresh processes
// (simulated by two fresh Servers) produces byte-identical reports — the
// cache-correctness precondition.
func TestByteIdenticalAcrossServers(t *testing.T) {
	_, hs1 := testServer(t, nil)
	_, hs2 := testServer(t, nil)
	resp1, body1 := post(t, hs1, smallReq)
	resp2, body2 := post(t, hs2, smallReq)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d; bodies %s / %s", resp1.StatusCode, resp2.StatusCode, body1, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("fresh servers disagree:\n%s\nvs\n%s", body1, body2)
	}
	var rep service.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != "hgserved/v1" || rep.Cut <= 0 || rep.Instance == "" {
		t.Fatalf("implausible report: %+v", rep)
	}
	if len(rep.BSF) == 0 || rep.BSF[len(rep.BSF)-1].Cut != rep.MinCut {
		t.Fatalf("BSF trajectory %v inconsistent with min cut %d", rep.BSF, rep.MinCut)
	}
}

// TestInstanceHashCoalescing: a benchmark request and an inline upload of the
// identical instance share a cache entry (content addressing ignores names).
func TestInstanceHashCoalescing(t *testing.T) {
	_, hs := testServer(t, nil)
	resp, body := post(t, hs, smallReq)
	if resp.StatusCode != 200 {
		t.Fatalf("benchmark request failed: %d %s", resp.StatusCode, body)
	}
	var rep service.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}

	// Re-upload the exact instance inline: hgserved must serve it from cache
	// because content addressing ignores instance names and text formatting.
	spec, err := gen.IBMProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := gen.Generate(gen.Scaled(spec, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	var hgr bytes.Buffer
	if err := netlist.WriteHGR(&hgr, h); err != nil {
		t.Fatal(err)
	}
	inline, err := json.Marshal(map[string]any{
		"hgr": hgr.String(), "engine": "flat", "starts": 3, "seed": 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp2, body2 := post(t, hs, string(inline))
	if resp2.StatusCode != 200 {
		t.Fatalf("inline request failed: %d %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Hgserved-Cache") != "hit" {
		t.Fatalf("inline upload of identical instance: disposition %q, want hit",
			resp2.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("inline and benchmark reports differ")
	}
}

// TestGracefulDrain is the drain acceptance test: SIGTERM semantics —
// readiness flips before the listener closes, the in-flight job is
// interrupted with its completed starts checkpointed, and resubmitting the
// identical request on a fresh server resumes the journal and produces a
// report byte-identical to an uninterrupted run.
func TestGracefulDrain(t *testing.T) {
	cpDir := t.TempDir()
	req := `{"benchmark":"ibm01","scale":0.25,"engine":"flat","starts":120,"seed":3,"async":true}`
	syncReq := strings.Replace(req, `,"async":true`, "", 1)

	// Reference: the uninterrupted answer from an unrelated server.
	_, ref := testServer(t, nil)
	refResp, refBody := post(t, ref, syncReq)
	if refResp.StatusCode != 200 {
		t.Fatalf("reference run failed: %d %s", refResp.StatusCode, refBody)
	}

	srv, hs := testServer(t, func(c *service.Config) {
		c.Workers = 1
		c.StartWorkers = 1
		c.CheckpointDir = cpDir
	})
	resp, body := post(t, hs, req)
	if resp.StatusCode != 202 {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	// Wait until the job has really completed some starts. Deadlines are
	// generous: the race detector slows the engine an order of magnitude.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st service.JobStatus
		getJSON(t, hs, "/v1/jobs/"+acc.Job, &st)
		if st.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain in the background; readiness must flip while the listener still
	// answers (that is the load balancer's signal).
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()
	for {
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatalf("readyz during drain: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// New submissions are refused after drain.
	resp2, _ := post(t, hs, syncReq)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", resp2.StatusCode)
	}

	// The job is interrupted, and its journal is on disk with real records.
	var st service.JobStatus
	getJSON(t, hs, "/v1/jobs/"+acc.Job, &st)
	if st.State != service.JobInterrupted {
		t.Fatalf("job state %q after drain, want interrupted (%+v)", st.State, st)
	}
	if st.Completed >= 120 {
		t.Fatalf("job completed all %d starts; drain came too late to test resume", st.Completed)
	}
	files, err := filepath.Glob(filepath.Join(cpDir, "*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files %v (err %v), want exactly one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 1+st.Completed {
		t.Fatalf("journal holds %d lines, want header + >= %d starts", lines, st.Completed)
	}

	// A fresh server over the same checkpoint dir resumes and finishes; the
	// final report is byte-identical to the uninterrupted reference.
	_, hs3 := testServer(t, func(c *service.Config) {
		c.Workers = 1
		c.StartWorkers = 1
		c.CheckpointDir = cpDir
	})
	resp3, body3 := post(t, hs3, req)
	if resp3.StatusCode != 202 {
		t.Fatalf("resume submit: %d %s", resp3.StatusCode, body3)
	}
	var acc3 struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body3, &acc3); err != nil {
		t.Fatal(err)
	}
	var st3 service.JobStatus
	resumeDeadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, hs3, "/v1/jobs/"+acc3.Job, &st3)
		if st3.State == service.JobDone || st3.State == service.JobFailed {
			break
		}
		if time.Now().After(resumeDeadline) {
			t.Fatalf("resumed job never finished: %+v", st3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st3.State != service.JobDone {
		t.Fatalf("resumed job state %q: %s", st3.State, st3.Error)
	}
	if st3.Resumed == 0 {
		t.Fatalf("resumed job loaded 0 starts from the journal")
	}
	if !bytes.Equal([]byte(st3.Report), refBody) {
		t.Fatalf("resumed report differs from uninterrupted reference:\n%s\nvs\n%s",
			st3.Report, refBody)
	}
	// The journal is retired once the complete result is cached.
	if files, _ := filepath.Glob(filepath.Join(cpDir, "*.jsonl")); len(files) != 0 {
		t.Fatalf("journal %v survived a completed run", files)
	}
}

// TestValidationErrors: malformed requests get 400s with useful messages and
// never reach the worker pool.
func TestValidationErrors(t *testing.T) {
	_, hs := testServer(t, nil)
	cases := []struct {
		name, body, want string
	}{
		{"no source", `{}`, "exactly one of"},
		{"two sources", `{"benchmark":"ibm01","hgr":"0 0 11\n"}`, "exactly one of"},
		{"bad engine", `{"benchmark":"ibm01","engine":"quantum"}`, "engine"},
		{"bad tolerance", `{"benchmark":"ibm01","tolerance":1.5}`, "tolerance"},
		{"bad scale", `{"benchmark":"ibm01","scale":2}`, "scale"},
		{"bad benchmark", `{"benchmark":"ibm99"}`, "benchmark"},
		{"unknown field", `{"benchmark":"ibm01","turbo":true}`, "turbo"},
		{"malformed hgr", `{"hgr":"3 2 11\n1 1 2\n"}`, "hgr"},
		{"are without netd", `{"benchmark":"ibm01","are":"x"}`, "are requires netd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, hs, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("body %q missing %q", body, tc.want)
			}
		})
	}
}

// TestJobLifecycle: async submit, status polling, job listing, cancel
// semantics on terminal jobs, and 404s.
func TestJobLifecycle(t *testing.T) {
	_, hs := testServer(t, nil)
	resp, body := post(t, hs, `{"benchmark":"ibm01","scale":0.1,"engine":"flat","starts":2,"seed":11,"async":true}`)
	if resp.StatusCode != 202 {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var st service.JobStatus
	for {
		getJSON(t, hs, "/v1/jobs/"+acc.Job, &st)
		if st.State == service.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(st.Report) == 0 {
		t.Fatal("done job carries no report")
	}
	var jobs []service.JobStatus
	if code := getJSON(t, hs, "/v1/jobs", &jobs); code != 200 || len(jobs) != 1 {
		t.Fatalf("job list: code %d, %d jobs", code, len(jobs))
	}
	if len(jobs[0].Report) != 0 {
		t.Fatal("list view must omit report bodies")
	}

	if code := getJSON(t, hs, "/v1/jobs/j-999999", nil); code != 404 {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+acc.Job, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelling a done job: %d, want 409", delResp.StatusCode)
	}
}

// TestProbesAndMetrics: liveness, readiness, stats and the Prometheus text
// surface expose the counters the tests above exercised.
func TestProbesAndMetrics(t *testing.T) {
	_, hs := testServer(t, nil)
	if _, body := post(t, hs, smallReq); len(body) == 0 {
		t.Fatal("empty report")
	}
	post(t, hs, smallReq) // cache hit

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`hgserved_requests_total{route="partition",code="200"} 2`,
		"hgserved_cache_hits_total 1",
		"hgserved_cache_misses_total 1",
		"hgserved_jobs_submitted_total 1",
		`hgserved_jobs_finished_total{state="done"} 1`,
		"hgserved_ready 1",
		"hgserved_work_units_total",
		"hgserved_ns_per_work_unit_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	statsResp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	sb.ReadFrom(statsResp.Body)
	statsResp.Body.Close()
	if !strings.Contains(sb.String(), "cache hits") {
		t.Fatalf("/v1/stats missing cache hits:\n%s", sb.String())
	}
}

// TestInfeasibleTolerance: a tolerance no legal partition can satisfy
// surfaces as 422, not a panic or a 500.
func TestInfeasibleTolerance(t *testing.T) {
	_, hs := testServer(t, nil)
	// Two vertices with wildly unequal weights and a tight tolerance: no
	// bisection is balanced.
	req, _ := json.Marshal(map[string]any{
		"hgr":       "1 2 11\n1 1 2\n1\n1000\n",
		"engine":    "flat",
		"starts":    2,
		"tolerance": 0.001,
	})
	resp, body := post(t, hs, string(req))
	if resp.StatusCode != 422 {
		t.Fatalf("infeasible tolerance: %d %s, want 422", resp.StatusCode, body)
	}
}

// postTrace posts to /v1/trace and returns the response and body.
func postTrace(t *testing.T, hs *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/trace", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/trace: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, buf.Bytes()
}

// TestTraceEndpoint exercises POST /v1/trace: deterministic across calls,
// pass records consistent with the summary fields, engine gating.
func TestTraceEndpoint(t *testing.T) {
	srv, hs := testServer(t, nil)
	_ = srv

	req := `{"benchmark":"ibm01","scale":0.1,"engine":"clip","seed":11}`
	resp1, body1 := postTrace(t, hs, req)
	if resp1.StatusCode != 200 {
		t.Fatalf("trace: %d\n%s", resp1.StatusCode, body1)
	}
	resp2, body2 := postTrace(t, hs, req)
	if resp2.StatusCode != 200 || !bytes.Equal(body1, body2) {
		t.Fatalf("trace not deterministic:\n%s\nvs\n%s", body1, body2)
	}

	var rep service.TraceReport
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "hgserved/trace/v1" || rep.Engine != "clip" || rep.Seed != 11 {
		t.Fatalf("bad header fields: %+v", rep)
	}
	if len(rep.Passes) == 0 {
		t.Fatal("no pass records")
	}
	last := rep.Passes[len(rep.Passes)-1]
	if rep.Cut <= 0 || last.EndCut < rep.Cut {
		t.Fatalf("cut inconsistent: final=%d last pass end=%d", rep.Cut, last.EndCut)
	}
	var moves int64
	for i, pr := range rep.Passes {
		if pr.Pass != i+1 {
			t.Fatalf("pass numbering: got %d at index %d", pr.Pass, i)
		}
		moves += pr.Moves
	}
	if moves != rep.TotalMoves {
		t.Fatalf("moves: sum of passes %d != total %d", moves, rep.TotalMoves)
	}

	// A multistart engine has no per-pass tracer; the endpoint must refuse.
	resp3, body3 := postTrace(t, hs,
		`{"benchmark":"ibm01","scale":0.1,"engine":"ml","seed":11}`)
	if resp3.StatusCode != 400 || !strings.Contains(string(body3), "flat or clip") {
		t.Fatalf("ml trace: %d %s", resp3.StatusCode, body3)
	}
}

// A traced start runs inline with the named engine and nothing else, so a
// field it cannot honour is refused by name instead of silently dropped,
// including starts and vcycles, which the request decoder defaults. A body
// that names none of them traces the same bytes as before the refusals.
// traceDigest is the sha256 prefix of the clip trace of ibm01@0.1 at seed
// 11 and 2% tolerance: flat and clip FM run full passes, so it never moves.
const traceDigest = "c011e2f8b443374e"

func TestTraceRefusesUnsupportedFields(t *testing.T) {
	_, hs := testServer(t, nil)
	const base = `{"benchmark":"ibm01","scale":0.1,"engine":"clip","seed":11,`
	resp, body := postTrace(t, hs, base+`"tolerance":0.02}`)
	if sum := sha256.Sum256(body); resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:8]) != traceDigest {
		t.Fatalf("plain trace: status %d, sha256 prefix %x, want 200 and %s: %s", resp.StatusCode, sum[:8], traceDigest, body)
	}
	cases := []struct {
		field, value string
		want         int
	}{
		{"mode", `"portfolio"`, http.StatusBadRequest},
		{"refine_threads", `2`, http.StatusBadRequest},
		{"wall_budget_ms", `1000`, http.StatusBadRequest},
		{"work_budget", `100000`, http.StatusBadRequest},
		{"workers", `2`, http.StatusBadRequest},
		{"priority", `3`, http.StatusBadRequest},
		{"async", `true`, http.StatusBadRequest},
		{"starts", `1`, http.StatusBadRequest},
		{"vcycles", `5`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			resp, body := postTrace(t, hs, base+`"`+tc.field+`":`+tc.value+`}`)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(string(body), `\"`+tc.field+`\"`) {
				t.Fatalf("refusal does not name %q: %s", tc.field, body)
			}
		})
	}
}
