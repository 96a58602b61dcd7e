package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hgpart/internal/eval"
	"hgpart/internal/rng"
)

// TestCacheKeyPortfolioWorkBudget: under mode=portfolio a non-zero work
// budget is keyed (it sizes the race, so it changes complete reports);
// everywhere else budgets stay out of the key, so existing entries keep
// their keys.
func TestCacheKeyPortfolioWorkBudget(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		var r PartitionRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		r.normalize()
		return cacheKey("h", &r)
	}
	fixed := key(`{"benchmark":"ibm01"}`)
	port := key(`{"benchmark":"ibm01","mode":"portfolio"}`)
	cases := []struct {
		name, body, want string
	}{
		{"fixed work budget ignored", `{"benchmark":"ibm01","work_budget":5000}`, fixed},
		{"fixed wall budget ignored", `{"benchmark":"ibm01","wall_budget_ms":50}`, fixed},
		{"portfolio wall budget ignored", `{"benchmark":"ibm01","mode":"portfolio","wall_budget_ms":50}`, port},
		{"portfolio zero work budget unkeyed", `{"benchmark":"ibm01","mode":"portfolio","work_budget":0}`, port},
	}
	for _, tc := range cases {
		if got := key(tc.body); got != tc.want {
			t.Errorf("%s: key changed", tc.name)
		}
	}
	b1 := key(`{"benchmark":"ibm01","mode":"portfolio","work_budget":5000}`)
	b2 := key(`{"benchmark":"ibm01","mode":"portfolio","work_budget":6000}`)
	if b1 == port || b2 == port || b1 == b2 {
		t.Fatal("portfolio work budgets must key distinct entries, apart from the unbudgeted one")
	}
	if fixed == port {
		t.Fatal("mode=portfolio must not share the fixed engine's key")
	}
}

// slowHeuristic delays every start: the computation, and so the report
// bytes, are unchanged, but a job stays in its commit long enough to be
// cancelled or drained mid-run.
type slowHeuristic struct {
	eval.Heuristic
	delay time.Duration
}

func (s slowHeuristic) Run(r *rng.RNG) eval.Outcome {
	time.Sleep(s.delay)
	return s.Heuristic.Run(r)
}

// TestPortfolioCancelAndDrain exercises the portfolio commit's cancellation
// dispositions, modelled on TestGracefulDrain: a client cancel ends 409 and
// caches nothing; a drain ends 503 interrupted with the commit journaled,
// and resubmitting on a fresh server over the same checkpoint dir resumes
// to bytes identical to an uninterrupted run.
func TestPortfolioCancelAndDrain(t *testing.T) {
	const req = `{"benchmark":"ibm01","scale":0.1,"mode":"portfolio","starts":40,"seed":5,"async":true}`
	syncReq := strings.Replace(req, `,"async":true`, "", 1)
	boot := func(cpDir string, slow bool) (*Server, *httptest.Server) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.StartWorkers = 1
		cfg.CheckpointDir = cpDir
		if slow {
			cfg.testWrap = func(inner func() eval.Heuristic) func() eval.Heuristic {
				return func() eval.Heuristic { return slowHeuristic{Heuristic: inner(), delay: 15 * time.Millisecond} }
			}
		}
		srv := New(cfg)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		return srv, hs
	}
	postBody := func(hs *httptest.Server, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	// submitMidCommit submits req asynchronously and returns its job once at
	// least two commit starts completed (race starts only beat, they do not
	// count), so the cancellation lands in the commit.
	submitMidCommit := func(srv *Server, hs *httptest.Server) *Job {
		t.Helper()
		resp, body := postBody(hs, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: %d %s", resp.StatusCode, body)
		}
		var acc struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		j, ok := srv.manager.Job(acc.Job)
		if !ok {
			t.Fatalf("job %s not found", acc.Job)
		}
		deadline := time.Now().Add(30 * time.Second)
		for j.Status().Completed < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("commit never progressed: %+v", j.Status())
			}
			time.Sleep(2 * time.Millisecond)
		}
		return j
	}

	_, ref := boot("", false)
	refResp, refBody := postBody(ref, syncReq)
	if refResp.StatusCode != 200 {
		t.Fatalf("reference run failed: %d %s", refResp.StatusCode, refBody)
	}

	t.Run("cancel", func(t *testing.T) {
		srv, hs := boot(t.TempDir(), true)
		j := submitMidCommit(srv, hs)
		del, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+j.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE of a running job: %d", resp.StatusCode)
		}
		<-j.Done()
		code, body, msg := j.Result()
		if code != http.StatusConflict || body != nil || !strings.Contains(msg, "cancelled") {
			t.Fatalf("cancelled job: %d %q (report %d bytes), want 409", code, msg, len(body))
		}
		if st := srv.CacheStats(); st.Entries != 0 {
			t.Fatalf("cancelled job left %d cache entries", st.Entries)
		}
	})

	t.Run("drain", func(t *testing.T) {
		cpDir := t.TempDir()
		srv, hs := boot(cpDir, true)
		j := submitMidCommit(srv, hs)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		code, _, msg := j.Result()
		if st := j.Status(); st.State != JobInterrupted || code != http.StatusServiceUnavailable {
			t.Fatalf("drained job: state %q status %d %q, want interrupted 503", st.State, code, msg)
		}
		if st := j.Status(); st.Completed >= 40 {
			t.Fatal("commit finished before the drain; nothing left to resume")
		}

		_, hs2 := boot(cpDir, false)
		resp, body := postBody(hs2, syncReq)
		if resp.StatusCode != 200 {
			t.Fatalf("resumed run failed: %d %s", resp.StatusCode, body)
		}
		var st JobStatus
		if code := getStatus(t, hs2, resp.Header.Get("X-Hgserved-Job"), &st); code != 200 || st.Resumed == 0 {
			t.Fatalf("resumed job loaded %d journaled starts (status %d), want > 0", st.Resumed, code)
		}
		if !bytes.Equal(body, refBody) {
			t.Fatalf("resumed report differs from uninterrupted reference:\n%s\nvs\n%s", body, refBody)
		}
	})
}

func getStatus(t *testing.T, hs *httptest.Server, id string, st *JobStatus) int {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if err := decodeBody(resp, st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return resp.StatusCode
}
