package kway

import (
	"slices"
	"testing"

	"hgpart/internal/core"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func instance(tb testing.TB, cells int, seed uint64) *hypergraph.Hypergraph {
	tb.Helper()
	h, err := gen.Generate(gen.Spec{
		Name: "kway-test", Cells: cells, Nets: cells + cells/10,
		AvgNetSize: 3.4, NumMacros: 3, MaxMacroFrac: 0.02,
		NumGlobalNets: 1, GlobalNetFrac: 0.01, Locality: 2, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func TestKWayBasic(t *testing.T) {
	h := instance(t, 600, 1)
	for _, k := range []int{2, 3, 4, 5, 8} {
		res, err := Partition(h, k, Config{Tolerance: 0.1}, rng.New(uint64(k)))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Parts.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Every part must be non-empty.
		seen := make([]bool, k)
		for _, p := range res.Parts {
			seen[p] = true
		}
		for p, ok := range seen {
			if !ok {
				t.Fatalf("k=%d: part %d empty", k, p)
			}
		}
		if res.CutNets <= 0 {
			t.Fatalf("k=%d: zero cut on connected instance", k)
		}
		if res.ConnectivityMinusOne < res.CutNets {
			t.Fatalf("k=%d: lambda-1 (%d) below cut (%d)", k, res.ConnectivityMinusOne, res.CutNets)
		}
	}
}

func TestKWayBalance(t *testing.T) {
	h := instance(t, 900, 2)
	for _, k := range []int{2, 3, 4} {
		res, err := Partition(h, k, Config{Tolerance: 0.1}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		// Recursive bisection compounds tolerance across levels; allow a
		// generous but bounded imbalance.
		if res.Imbalance > 0.35 {
			t.Fatalf("k=%d imbalance %.3f too large", k, res.Imbalance)
		}
		if got := objective.Imbalance(h, res.Parts, k); got != res.Imbalance {
			t.Fatalf("k=%d: result imbalance %v, objective.Imbalance %v", k, res.Imbalance, got)
		}
	}
}

func TestKWayUnequalSplitShares(t *testing.T) {
	// k=3 must give parts near 1/3 each (the dummy-vertex trick at work:
	// the first bisection targets 2/3 vs 1/3).
	h := instance(t, 900, 3)
	res, err := Partition(h, 3, Config{Tolerance: 0.05}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	w := objective.PartWeights(h, res.Parts, 3)
	ideal := float64(h.TotalVertexWeight()) / 3
	for p, x := range w {
		dev := (float64(x) - ideal) / ideal
		if dev > 0.3 || dev < -0.3 {
			t.Fatalf("part %d weight %d deviates %.2f from ideal %.0f", p, x, dev, ideal)
		}
	}
}

func TestKWayCutGrowsWithK(t *testing.T) {
	h := instance(t, 800, 4)
	prev := int64(0)
	for _, k := range []int{2, 4, 8} {
		res, err := Partition(h, k, Config{Tolerance: 0.1}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if res.CutNets < prev/2 {
			t.Fatalf("cut collapsed going to k=%d: %d after %d", k, res.CutNets, prev)
		}
		prev = res.CutNets
	}
}

func TestKWayK1(t *testing.T) {
	h := instance(t, 200, 5)
	res, err := Partition(h, 1, Config{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets != 0 || res.Bisections != 0 {
		t.Fatalf("k=1 should be trivial: %+v", res)
	}
}

func TestKWayErrors(t *testing.T) {
	h := instance(t, 50, 6)
	if _, err := Partition(h, 0, Config{}, rng.New(1)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(h, 51, Config{}, rng.New(1)); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestKWayDeterministic(t *testing.T) {
	h := instance(t, 400, 7)
	a, err := Partition(h, 4, Config{Tolerance: 0.1}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, 4, Config{Tolerance: 0.1}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.CutNets != b.CutNets {
		t.Fatalf("kway not deterministic: %d vs %d", a.CutNets, b.CutNets)
	}
}

func TestKWayMLPath(t *testing.T) {
	// Force the multilevel path by lowering the threshold.
	h := instance(t, 700, 8)
	res, err := Partition(h, 4, Config{Tolerance: 0.1, MLThreshold: 100}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Parts.Validate(4); err != nil {
		t.Fatal(err)
	}
	if res.Imbalance > 0.4 {
		t.Fatalf("ML-path imbalance %.3f", res.Imbalance)
	}
}

func TestKWayMultipleStarts(t *testing.T) {
	h := instance(t, 500, 9)
	one, err := Partition(h, 2, Config{Tolerance: 0.05, Starts: 1}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Partition(h, 2, Config{Tolerance: 0.05, Starts: 4}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if four.CutNets > one.CutNets*2 {
		t.Fatalf("4 starts (%d) much worse than 1 (%d)", four.CutNets, one.CutNets)
	}
}

func TestDirectRefineImproves(t *testing.T) {
	// DirectRefine optimizes across all parts at once; it must never hurt
	// the cut relative to plain recursive bisection with the same seed.
	h := instance(t, 600, 10)
	plain, err := Partition(h, 4, Config{Tolerance: 0.05}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(h, 4, Config{Tolerance: 0.05, DirectRefine: true}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if refined.CutNets > plain.CutNets {
		t.Fatalf("DirectRefine worsened cut: %d -> %d", plain.CutNets, refined.CutNets)
	}
	if err := refined.Parts.Validate(4); err != nil {
		t.Fatal(err)
	}
	if refined.Imbalance > 0.35 {
		t.Fatalf("DirectRefine imbalance %.3f", refined.Imbalance)
	}
}

// TestBisectHonorsFixed drives the shared terminal bisection down both of
// its branches — the multilevel engine above MLThreshold and flat FM at or
// below it — with a tenth of the vertices pinned, and checks every pin
// holds, the result is legal, and each branch is the engine it claims to be.
func TestBisectHonorsFixed(t *testing.T) {
	h := instance(t, 700, 13)
	fixed := partition.AllFree(h.NumVertices())
	for v := 0; v < h.NumVertices(); v += 10 {
		fixed[v] = int8(v / 10 % 2)
	}
	cfg := Config{Tolerance: 0.1}.withDefaults()
	bal := partition.NewBalance(h.TotalVertexWeight(), cfg.Tolerance)
	for _, tc := range []struct {
		name      string
		threshold int
		want      func(r *rng.RNG) *partition.P
	}{
		{"ml", h.NumVertices() - 1, func(r *rng.RNG) *partition.P {
			p, _ := multilevel.New(h, multilevel.Config{Refine: cfg.Refine}, bal).PartitionFixed(fixed, r.Split())
			return p
		}},
		{"flat", h.NumVertices(), func(r *rng.RNG) *partition.P {
			eng := core.NewEngine(h, cfg.Refine, bal, r.Split())
			p := partition.NewFixed(h, fixed)
			p.RandomBalanced(r.Split(), bal)
			eng.Run(p)
			return p
		}},
	} {
		c := cfg
		c.MLThreshold = tc.threshold
		p := Bisect(h, fixed, c, rng.New(14))
		for v, f := range fixed {
			if f != partition.Free && (p.Side(int32(v)) != uint8(f) || !p.IsFixed(int32(v))) {
				t.Fatalf("%s: vertex %d pinned to %d ended on side %d (still fixed: %v)", tc.name, v, f, p.Side(int32(v)), p.IsFixed(int32(v)))
			}
		}
		if !p.Legal(bal) || p.Cut() != p.CutFromScratch() {
			t.Fatalf("%s: illegal or inconsistent result (cut %d)", tc.name, p.Cut())
		}
		if want := tc.want(rng.New(14)); !slices.Equal(p.Sides(), want.Sides()) {
			t.Fatalf("%s: Bisect took the other branch (cut %d, branch engine cut %d)", tc.name, p.Cut(), want.Cut())
		}
	}
}
