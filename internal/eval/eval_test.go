package eval

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"hgpart/internal/core"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func instance(tb testing.TB) *hypergraph.Hypergraph {
	tb.Helper()
	h, err := gen.Generate(gen.Spec{
		Name: "eval-test", Cells: 400, Nets: 440, AvgNetSize: 3.4,
		NumMacros: 3, MaxMacroFrac: 0.03, NumGlobalNets: 1,
		GlobalNetFrac: 0.02, Locality: 2, Seed: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func TestFlatHeuristicRun(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	f := NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(1))
	if f.Name() != "flat" {
		t.Fatal("name")
	}
	o := f.Run(rng.New(2))
	if o.P == nil || o.Cut != o.P.Cut() || !o.P.Legal(bal) {
		t.Fatal("flat outcome invalid")
	}
	if o.Work <= 0 {
		t.Fatal("no work recorded")
	}
	if o.NormalizedSeconds() != float64(o.Work)/WorkUnitsPerSecond {
		t.Fatal("normalized seconds wrong")
	}
	// Flat has no polish step.
	if p := f.PolishBest(o.P, rng.New(3)); p.P != nil {
		t.Fatal("flat PolishBest should be a no-op")
	}
}

func TestMLHeuristicRunAndPolish(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := NewML("ml", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 1)
	o := m.Run(rng.New(4))
	if o.P == nil || !o.P.Legal(bal) {
		t.Fatal("ML outcome invalid")
	}
	before := o.P.Cut()
	pol := m.PolishBest(o.P, rng.New(5))
	if pol.P == nil {
		t.Fatal("ML PolishBest should act")
	}
	if pol.Cut > before {
		t.Fatalf("V-cycle polish worsened: %d -> %d", before, pol.Cut)
	}
	// VCycles == 0 disables polish.
	m0 := NewML("ml0", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 0)
	if p := m0.PolishBest(o.P, rng.New(6)); p.P != nil {
		t.Fatal("VCycles=0 should disable polish")
	}
}

func TestMultistartBestIsMin(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	f := NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(7))
	rep := Multistart(context.Background(), f, 8, rng.New(8), nil)
	samples := rep.Outcomes()
	if len(samples) != 8 {
		t.Fatalf("%d samples", len(samples))
	}
	mn := samples[0].Cut
	for i, s := range samples {
		if s.Cut < mn {
			mn = s.Cut
		}
		if s.P != nil && i != rep.BestIdx {
			t.Fatal("only the best sample may retain its partition")
		}
	}
	if rep.Best.Cut != mn || rep.Best.P == nil {
		t.Fatalf("best %d (min %d)", rep.Best.Cut, mn)
	}
}

func TestMultistartDeterministic(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	run := func() []int64 {
		f := NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(9))
		samples := Multistart(context.Background(), f, 5, rng.New(10), nil).Outcomes()
		cuts := make([]int64, len(samples))
		for i, s := range samples {
			cuts[i] = s.Cut
		}
		return cuts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("multistart not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBestOfKAccounting(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := NewML("ml", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 1)
	best, secs, work := BestOfK(m, 3, rng.New(11))
	if best.P == nil || !best.P.Legal(bal) {
		t.Fatal("BestOfK invalid")
	}
	if secs <= 0 || work <= 0 {
		t.Fatal("no cost recorded")
	}
	if best.Work != work || best.Seconds != secs {
		t.Fatal("best outcome should carry total configuration cost")
	}
}

func TestEvaluateConfigurationsShape(t *testing.T) {
	h := instance(t)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := NewML("ml", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 0)
	pts, incomplete := EvaluateConfigurationsCtx(context.Background(), m, []int{1, 4}, 3, rng.New(12))
	if incomplete {
		t.Fatal("uncancelled sweep reported incomplete")
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Starts != 1 || pts[1].Starts != 4 {
		t.Fatal("start counts")
	}
	if len(pts[0].Cuts) != 3 {
		t.Fatal("reps not recorded")
	}
	// More starts must not be cheaper, and should not average worse by much.
	if pts[1].AvgNormalizedSecs <= pts[0].AvgNormalizedSecs {
		t.Fatal("4 starts not more expensive than 1")
	}
	if pts[1].AvgBestCut > pts[0].AvgBestCut*1.25 {
		t.Fatalf("best-of-4 (%f) much worse than best-of-1 (%f)",
			pts[1].AvgBestCut, pts[0].AvgBestCut)
	}
}

func TestExpectedBestOfK(t *testing.T) {
	cuts := []float64{10, 20, 30, 40}
	if got := ExpectedBestOfK(cuts, 1); !closeTo(got, 25, 1e-9) {
		t.Fatalf("k=1: %v", got)
	}
	// k large: converges to the minimum.
	if got := ExpectedBestOfK(cuts, 1000); !closeTo(got, 10, 1e-6) {
		t.Fatalf("k=1000: %v", got)
	}
	// Exact k=2 value: E[min of 2 draws with replacement] =
	// sum c_(i) * ((n-i+1)^2 - (n-i)^2)/n^2 = (10*7+20*5+30*3+40*1)/16.
	want := (10.0*7 + 20*5 + 30*3 + 40*1) / 16.0
	if got := ExpectedBestOfK(cuts, 2); !closeTo(got, want, 1e-9) {
		t.Fatalf("k=2: %v want %v", got, want)
	}
}

func TestExpectedBestMonotoneInK(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + int(seed%20)
		cuts := make([]float64, n)
		for i := range cuts {
			cuts[i] = 100 + 50*r.Float64()
		}
		sortFloat(cuts)
		prev := math.Inf(1)
		for k := 1; k <= 32; k *= 2 {
			e := ExpectedBestOfK(cuts, k)
			if e > prev+1e-9 {
				return false
			}
			if e < cuts[0]-1e-9 || e > cuts[n-1]+1e-9 {
				return false
			}
			prev = e
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBSFCurve(t *testing.T) {
	samples := []Outcome{
		{Cut: 100, Work: WorkUnitsPerSecond}, // 1 normalized second each
		{Cut: 120, Work: WorkUnitsPerSecond},
		{Cut: 80, Work: WorkUnitsPerSecond},
	}
	pts := BSFCurve(samples, []float64{0.5, 1, 3}, true)
	if len(pts) != 3 {
		t.Fatal("points")
	}
	if pts[0].Starts != 0 || !math.IsInf(pts[0].ExpectedBest, 1) {
		t.Fatal("sub-single-start budget should be Inf")
	}
	if pts[1].Starts != 1 || !closeTo(pts[1].ExpectedBest, 100, 1e-9) {
		t.Fatalf("1-start point: %+v", pts[1])
	}
	if pts[2].Starts != 3 || pts[2].ExpectedBest >= pts[1].ExpectedBest {
		t.Fatalf("3-start point should improve: %+v", pts[2])
	}
	if BSFCurve(nil, []float64{1}, true) != nil {
		t.Fatal("empty samples should give nil")
	}
}

func TestDominatesAndPareto(t *testing.T) {
	a := PerfPoint{"a", 10, 1}
	b := PerfPoint{"b", 12, 2}
	c := PerfPoint{"c", 8, 3}
	d := PerfPoint{"d", 14, 4} // dominated by b (and a)
	if !Dominates(a, b) || Dominates(b, a) {
		t.Fatal("Dominates wrong")
	}
	if Dominates(a, c) || Dominates(c, a) {
		t.Fatal("incomparable points must not dominate")
	}
	front := ParetoFrontier([]PerfPoint{a, b, c, d})
	if len(front) != 2 {
		t.Fatalf("frontier size %d: %+v", len(front), front)
	}
	if front[0].Label != "a" || front[1].Label != "c" {
		t.Fatalf("frontier %+v", front)
	}
}

func TestParetoAgainstBruteForce(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + int(seed%15)
		pts := make([]PerfPoint, n)
		for i := range pts {
			pts[i] = PerfPoint{Cost: float64(r.Intn(10)), Seconds: float64(r.Intn(10))}
		}
		front := ParetoFrontier(pts)
		inFront := func(p PerfPoint) bool {
			for _, q := range front {
				if q == p {
					return true
				}
			}
			return false
		}
		for _, p := range pts {
			dominated := false
			for _, q := range pts {
				if q != p && Dominates(q, p) {
					dominated = true
					break
				}
			}
			if dominated == inFront(p) && dominated {
				return false // dominated point on frontier
			}
			if !dominated && !inFront(p) {
				return false // non-dominated point missing
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRankingDiagram(t *testing.T) {
	fast := []Outcome{{Cut: 100, Work: WorkUnitsPerSecond / 10}}
	slowGood := []Outcome{{Cut: 50, Work: WorkUnitsPerSecond}}
	cells := RankingDiagram(map[int]map[string][]Outcome{
		1000: {"fast": fast, "slowgood": slowGood},
	}, []float64{0.2, 2}, true)
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	// Small budget: only the fast heuristic finishes a start.
	if cells[0].Winner != "fast" {
		t.Fatalf("small-budget winner %q", cells[0].Winner)
	}
	// Large budget: the better heuristic wins.
	if cells[1].Winner != "slowgood" {
		t.Fatalf("large-budget winner %q", cells[1].Winner)
	}
}

func closeTo(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func sortFloat(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
