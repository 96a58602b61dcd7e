package portfolio

import (
	"context"
	"encoding/json"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
)

func genScaled(t *testing.T, spec gen.Spec, f float64) *hypergraph.Hypergraph {
	t.Helper()
	h, err := gen.Generate(gen.Scaled(spec, f))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func balanceFor(h *hypergraph.Hypergraph) partition.Balance {
	return partition.NewBalance(h.TotalVertexWeight(), 0.02)
}

// raceBytes serializes the deterministic surface of a race result — exactly
// the fields that may enter a report body.
func raceBytes(t *testing.T, res *RaceResult) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Bucket   string
		Features Features
		Traces   []ArmTrace
		Winner   string
		Cut      int64
		RaceWork int64
	}{res.Bucket.Key(), res.Features, res.Traces, res.Arms[res.Winner].Name,
		res.Best.Cut, res.RaceWork})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runBytes serializes the deterministic surface of a full portfolio run.
func runBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Race    json.RawMessage
		Commit  string
		Final   int64
		Source  string
		Total   int64
		Balance int64
	}{json.RawMessage(raceBytes(t, res.Race)), res.Commit.Summary(),
		res.Final.Cut, res.Source, res.TotalWork, res.Final.P.Area(0)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRaceDeterministicAndWinnerIsBest(t *testing.T) {
	h := genScaled(t, gen.MustIBMProfile(1), 0.04)
	bal := balanceFor(h)
	s := &Scheduler{}
	a, err := s.Race(context.Background(), h, bal, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Race(context.Background(), h, bal, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ab, bb := raceBytes(t, a), raceBytes(t, b); string(ab) != string(bb) {
		t.Fatalf("race not byte-deterministic:\n%s\n%s", ab, bb)
	}
	if len(a.Traces) != len(DefaultArms()) {
		t.Fatalf("raced %d arms, want %d", len(a.Traces), len(DefaultArms()))
	}
	w := a.Traces[a.Winner]
	if !w.Won || !w.OK {
		t.Fatalf("winner trace %+v not marked Won/OK", w)
	}
	for _, tr := range a.Traces {
		if tr.OK && tr.Cut < w.Cut {
			t.Fatalf("arm %s cut %d beats winner %s cut %d", tr.Arm, tr.Cut, w.Arm, w.Cut)
		}
	}
	if a.Best.Cut != w.Cut || a.Best.P == nil {
		t.Fatalf("Best = {cut %d, P %v}, want winner cut %d with partition", a.Best.Cut, a.Best.P, w.Cut)
	}
	// A different seed should change at least the per-arm work profile.
	c, err := s.Race(context.Background(), h, bal, 43, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(raceBytes(t, a)) == string(raceBytes(t, c)) {
		t.Fatal("different seeds produced identical race bytes (suspicious)")
	}
}

func TestRaceBudgetedRunsMultipleStarts(t *testing.T) {
	h := genScaled(t, mustMCNC(t, "struct"), 0.3)
	bal := balanceFor(h)
	s := &Scheduler{}
	// First measure a one-start race to size a budget that forces >=2 starts
	// for at least one arm.
	probe, err := s.Race(context.Background(), h, bal, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.RaceWork * 3
	res, err := s.Race(context.Background(), h, bal, 7, budget)
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, tr := range res.Traces {
		if tr.Starts > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatalf("budget %d (3x one-start race) produced no multi-start arm: %+v", budget, res.Traces)
	}
	// Budgeted races are deterministic too.
	res2, err := s.Race(context.Background(), h, bal, 7, budget)
	if err != nil {
		t.Fatal(err)
	}
	if string(raceBytes(t, res)) != string(raceBytes(t, res2)) {
		t.Fatal("budgeted race not byte-deterministic")
	}
}

func TestRaceCancelled(t *testing.T) {
	h := genScaled(t, gen.MustIBMProfile(1), 0.04)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Scheduler{}).Race(ctx, h, balanceFor(h), 1, 0); err == nil {
		t.Fatal("cancelled race must return an error")
	}
}

func TestRaceInfeasible(t *testing.T) {
	// Two vertices with wildly different weights cannot be balanced at 2%.
	b := hypergraph.NewBuilder(2, 1)
	b.AddVertex(1)
	b.AddVertex(100)
	b.AddEdge(1, 0, 1)
	h := b.MustBuild()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	if _, err := (&Scheduler{}).Race(context.Background(), h, bal, 1, 0); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestPortfolioSmoke is the CI portfolio-smoke gate (make portfolio-smoke):
// on two gen profiles — one macro-bearing IBM-like, one unit-area MCNC-like —
// the full race+commit schedule must produce byte-identical results across
// two runs. This is the package-level half of the determinism contract;
// cmd/hgchaos proves the service-level half across restarts and cluster
// topologies.
func TestPortfolioSmoke(t *testing.T) {
	profiles := []struct {
		name string
		spec gen.Spec
		f    float64
	}{
		{"ibm01", gen.MustIBMProfile(1), 0.04},
		{"struct", mustMCNC(t, "struct"), 0.3},
	}
	for _, pr := range profiles {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			h := genScaled(t, pr.spec, pr.f)
			bal := balanceFor(h)
			const seed, starts = 1, 3

			run := func() []byte {
				res, err := (&Scheduler{}).Run(context.Background(), h, bal, seed, starts, 0)
				if err != nil {
					t.Fatal(err)
				}
				return runBytes(t, res)
			}

			first := run()
			if second := run(); string(first) != string(second) {
				t.Fatalf("repeat run differs:\n%s\n%s", first, second)
			}
		})
	}
}

// TestRunCommitImproves checks the commit phase is actually wired: the
// commit report must have run starts, and the final cut can only be <= the
// race winner's cut.
func TestRunCommitImproves(t *testing.T) {
	h := genScaled(t, gen.MustIBMProfile(1), 0.04)
	bal := balanceFor(h)
	res, err := (&Scheduler{}).Run(context.Background(), h, bal, 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commit.Completed == 0 {
		t.Fatalf("commit ran no starts: %s", res.Commit.Summary())
	}
	if res.Final.Cut > res.Race.Best.Cut {
		t.Fatalf("final cut %d worse than race best %d", res.Final.Cut, res.Race.Best.Cut)
	}
	if res.Final.P == nil {
		t.Fatal("final outcome carries no partition")
	}
	if res.Source != "race" && res.Source != "commit" {
		t.Fatalf("Source = %q", res.Source)
	}
	t.Logf("final cut %d from %s (race winner %s)", res.Final.Cut, res.Source,
		res.Race.Arms[res.Race.Winner].Name)
}
