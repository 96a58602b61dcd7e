package trace

import (
	"bytes"
	"strings"
	"testing"

	"hgpart/internal/core"
	"hgpart/internal/gen"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func runTraced(t *testing.T) (*Recorder, core.Result) {
	t.Helper()
	h, err := gen.Generate(gen.Spec{
		Name: "trace-test", Cells: 300, Nets: 330, AvgNetSize: 3.3,
		NumMacros: 2, MaxMacroFrac: 0.03, NumGlobalNets: 1,
		GlobalNetFrac: 0.01, Locality: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	eng := core.NewEngine(h, core.StrongConfig(false), bal, rng.New(1))
	rec := &Recorder{}
	eng.SetTracer(rec)
	p := partition.New(h)
	p.RandomBalanced(rng.New(2), bal)
	res := eng.Run(p)
	return rec, res
}

func TestRecorderAgreesWithResult(t *testing.T) {
	rec, res := runTraced(t)
	if len(rec.Passes()) != res.Passes {
		t.Fatalf("recorded %d passes, engine reports %d", len(rec.Passes()), res.Passes)
	}
	var moves int64
	for _, p := range rec.Passes() {
		moves += p.Moves
	}
	if moves != res.Moves {
		t.Fatalf("recorded %d moves, engine reports %d", moves, res.Moves)
	}
	last := rec.Passes()[len(rec.Passes())-1]
	if last.EndCut != res.Cut {
		t.Fatalf("final pass end cut %d, result %d", last.EndCut, res.Cut)
	}
}

func TestPassCutsMonotoneAcrossPasses(t *testing.T) {
	rec, _ := runTraced(t)
	ps := rec.Passes()
	for i := 1; i < len(ps); i++ {
		if ps[i].StartCut != ps[i-1].EndCut {
			t.Fatalf("pass %d starts at %d but previous ended at %d",
				ps[i].Pass, ps[i].StartCut, ps[i-1].EndCut)
		}
		if ps[i].EndCut > ps[i].StartCut {
			t.Fatalf("pass %d worsened the cut", ps[i].Pass)
		}
	}
}

func TestCSVOutputs(t *testing.T) {
	rec, _ := runTraced(t)
	var sum bytes.Buffer
	if err := rec.WriteSummaryCSV(&sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sum.String()), "\n")
	if lines[0] != "pass,start_cut,end_cut,moves,rolled_back" {
		t.Fatalf("summary header %q", lines[0])
	}
	if len(lines)-1 != len(rec.Passes()) {
		t.Fatalf("summary rows %d, passes %d", len(lines)-1, len(rec.Passes()))
	}
}

func TestSummarize(t *testing.T) {
	rec, res := runTraced(t)
	s := rec.Summarize()
	if s.Passes != res.Passes || s.TotalMoves != res.Moves {
		t.Fatalf("summary %+v vs result %+v", s, res)
	}
	if s.FinalCut != res.Cut {
		t.Fatal("summary final cut mismatch")
	}
	if s.ShortestPassMoves > s.TotalMoves {
		t.Fatal("shortest pass cannot exceed total")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n <= 0 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestCSVWriteErrorsPropagate(t *testing.T) {
	rec, _ := runTraced(t)
	if err := rec.WriteSummaryCSV(&failWriter{n: 1}); err == nil {
		t.Fatal("summary header write error swallowed")
	}
	if err := rec.WriteSummaryCSV(&failWriter{n: 2}); err == nil {
		t.Fatal("summary row write error swallowed")
	}
}
