package service

// In-package watchdog tests: they reach through Config.testWrap to plant a
// heuristic that wedges forever, the one failure mode a cooperative
// cancellation model cannot unstick on its own. The watchdog must notice the
// silent heartbeat, cancel the run, and either requeue (journal-backed
// resume) or fail the job once requeues are exhausted.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hgpart/internal/eval"
	"hgpart/internal/rng"
)

func decodeBody(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// stallHeuristic wedges the first wedgeN Run calls (all of them if
// wedgeN < 0) until release closes, then behaves like the real heuristic.
type stallHeuristic struct {
	eval.Heuristic
	calls   *atomic.Int32
	wedgeN  int32
	release <-chan struct{}
}

func (s stallHeuristic) Run(r *rng.RNG) eval.Outcome {
	if n := s.calls.Add(1); s.wedgeN < 0 || n <= s.wedgeN {
		<-s.release
	}
	return s.Heuristic.Run(r)
}

// watchdogServer boots a server whose first (or every) start wedges.
func watchdogServer(t *testing.T, wedgeAll bool, maxRequeues int) (*Server, *httptest.Server) {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // drain wedged goroutines last
	wedgeN := int32(1)
	if wedgeAll {
		wedgeN = -1
	}
	var calls atomic.Int32
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.StartWorkers = 1
	cfg.CheckpointDir = t.TempDir()
	cfg.StuckAfter = 80 * time.Millisecond
	cfg.WatchdogInterval = 10 * time.Millisecond
	cfg.MaxRequeues = maxRequeues
	cfg.testWrap = func(inner func() eval.Heuristic) func() eval.Heuristic {
		return func() eval.Heuristic {
			return stallHeuristic{Heuristic: inner(), calls: &calls, wedgeN: wedgeN, release: release}
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

// wedgeReqs are the requests the watchdog suite wedges, one per mode. The
// hook wraps the multistart factory only, so under mode=portfolio the race
// runs normally and the first commit start is the one that wedges.
var wedgeReqs = []struct{ mode, body string }{
	{"fixed", `{"benchmark":"ibm01","scale":0.05,"engine":"flat","starts":2,"seed":3}`},
	{"portfolio", `{"benchmark":"ibm01","scale":0.05,"mode":"portfolio","starts":2,"seed":3}`},
}

func TestWatchdogRequeuesStuckJobAndCompletes(t *testing.T) {
	for _, tc := range wedgeReqs {
		t.Run(tc.mode, func(t *testing.T) {
			_, hs := watchdogServer(t, false, 1)
			resp, err := http.Post(hs.URL+"/v1/partition", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d, want 200 after a watchdog requeue", resp.StatusCode)
			}
			jobID := resp.Header.Get("X-Hgserved-Job")
			if jobID == "" {
				t.Fatal("response lacks X-Hgserved-Job")
			}
			jresp, err := http.Get(hs.URL + "/v1/jobs/" + jobID)
			if err != nil {
				t.Fatalf("GET job: %v", err)
			}
			defer jresp.Body.Close()
			var st JobStatus
			if err := decodeBody(jresp, &st); err != nil {
				t.Fatalf("decode job status: %v", err)
			}
			if st.State != JobDone {
				t.Fatalf("job state %q, want done", st.State)
			}
			if st.Requeues != 1 {
				t.Fatalf("requeues = %d, want exactly 1 (one wedge, one healthy retry)", st.Requeues)
			}
		})
	}
}

func TestWatchdogFailsJobAfterExhaustingRequeues(t *testing.T) {
	for _, tc := range wedgeReqs {
		t.Run(tc.mode, func(t *testing.T) {
			_, hs := watchdogServer(t, true, 1)
			resp, err := http.Post(hs.URL+"/v1/partition", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 500 {
				t.Fatalf("status %d, want 500 once requeues are exhausted", resp.StatusCode)
			}
			var doc map[string]any
			if err := decodeBody(resp, &doc); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			msg, _ := doc["error"].(string)
			if !strings.Contains(msg, "no progress") || !strings.Contains(msg, "requeue") {
				t.Fatalf("error %q should explain the stall and the exhausted requeues", msg)
			}
		})
	}
}
