package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"hgpart/internal/core"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
	"hgpart/internal/trace"
)

// The trace endpoint is the service face of the paper's diagnostic
// methodology: the corking effect was found in "traces of CLIP executions",
// and hgpart exposes the same evidence via -trace. POST /v1/trace runs one
// traced flat/clip start and returns the per-pass cut curve summaries —
// deterministic for a given (instance, engine, seed), like every other
// answer the daemon gives. A field the single inline start cannot honour
// (starts, vcycles, mode, budgets, polish, queueing) is refused, never
// silently dropped.

// TracePass is one FM pass of a traced run.
type TracePass struct {
	Pass       int   `json:"pass"`
	StartCut   int64 `json:"start_cut"`
	EndCut     int64 `json:"end_cut"`
	Moves      int64 `json:"moves"`
	RolledBack int   `json:"rolled_back"`
}

// TraceReport is the POST /v1/trace response document.
type TraceReport struct {
	Schema       string  `json:"schema"`
	Instance     string  `json:"instance"`
	InstanceHash string  `json:"instance_hash"`
	Engine       string  `json:"engine"`
	Tolerance    float64 `json:"tolerance"`
	Seed         uint64  `json:"seed"`

	Cut               int64       `json:"cut"`
	Passes            []TracePass `json:"passes"`
	TotalMoves        int64       `json:"total_moves"`
	TotalRolledBack   int64       `json:"total_rolled_back"`
	ShortestPassMoves int64       `json:"shortest_pass_moves"`
}

// traceUnsupported names the first field set on req that a traced start
// cannot honour, or "" when there is none. starts and vcycles are defaulted
// before any gate sees req, so their presence is read from the raw body,
// which admitRequest has already decoded once without error.
func traceUnsupported(req *PartitionRequest, raw []byte) string {
	var present struct {
		Starts  *json.RawMessage `json:"starts"`
		VCycles *json.RawMessage `json:"vcycles"`
	}
	_ = json.Unmarshal(raw, &present)
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"mode", req.Mode != ""},
		{"refine_threads", req.RefineThreads != 0},
		{"wall_budget_ms", req.WallBudgetMS != 0},
		{"work_budget", req.WorkBudget != 0},
		{"workers", req.Workers != 0},
		{"priority", req.Priority != 0},
		{"async", req.Async},
		{"starts", present.Starts != nil},
		{"vcycles", present.VCycles != nil},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}

// handleTrace runs a single traced start inline (one FM run, no queueing)
// and returns the pass summaries.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		errorBody(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, h, instName, ok := s.admitRequest(w, raw, func(req *PartitionRequest) bool {
		if req.Engine != "flat" && req.Engine != "clip" {
			errorBody(w, http.StatusBadRequest, "trace requires engine flat or clip (pass tracers exist for the flat FM engines)")
			return false
		}
		if field := traceUnsupported(req, raw); field != "" {
			errorBody(w, http.StatusBadRequest, fmt.Sprintf("trace does not support %q: it runs one start of the named engine inline, unqueued and unbudgeted", field))
			return false
		}
		return true
	})
	if !ok {
		return
	}

	bal := partition.NewBalance(h.TotalVertexWeight(), req.Tolerance)
	gen := rng.New(req.Seed)
	eng := core.NewEngine(h, core.StrongConfig(req.Engine == "clip"), bal, gen)
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	p := partition.New(h)
	p.RandomBalanced(gen, bal)
	res := eng.Run(p)

	sum := rec.Summarize()
	rep := TraceReport{
		Schema:            "hgserved/trace/v1",
		Instance:          instName,
		InstanceHash:      instanceHash(h),
		Engine:            req.Engine,
		Tolerance:         req.Tolerance,
		Seed:              req.Seed,
		Cut:               res.Cut,
		TotalMoves:        sum.TotalMoves,
		TotalRolledBack:   sum.TotalRolledBack,
		ShortestPassMoves: sum.ShortestPassMoves,
	}
	for _, pr := range rec.Passes() {
		rep.Passes = append(rep.Passes, TracePass{
			Pass: pr.Pass, StartCut: pr.StartCut, EndCut: pr.EndCut,
			Moves: pr.Moves, RolledBack: pr.RolledBack,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}
