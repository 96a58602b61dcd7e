package multilevel

import (
	"slices"
	"testing"
	"testing/quick"

	"hgpart/internal/core"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func testInstance(tb testing.TB, seed uint64, cells int) *hypergraph.Hypergraph {
	tb.Helper()
	h, err := gen.Generate(gen.Spec{
		Name:          "ml-test",
		Cells:         cells,
		Nets:          cells + cells/10,
		AvgNetSize:    3.5,
		NumMacros:     4,
		MaxMacroFrac:  0.03,
		NumGlobalNets: 1,
		GlobalNetFrac: 0.01,
		Locality:      2,
		Seed:          seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func TestPartitionLegalAndConsistent(t *testing.T) {
	h := testInstance(t, 1, 800)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	p, st := ml.Partition(rng.New(2))
	if !p.Legal(bal) {
		t.Fatal("ML produced illegal partition")
	}
	if p.Cut() != p.CutFromScratch() || st.Cut != p.Cut() {
		t.Fatalf("cut inconsistent: stats=%d p=%d scratch=%d", st.Cut, p.Cut(), p.CutFromScratch())
	}
	if st.Levels < 2 {
		t.Fatalf("no coarsening happened on an 800-cell instance: levels=%d", st.Levels)
	}
	if st.CoarsestVertices > 800 {
		t.Fatalf("coarsest larger than input: %d", st.CoarsestVertices)
	}
}

func TestMLBeatsFlatOnAverage(t *testing.T) {
	h := testInstance(t, 3, 1200)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	r := rng.New(4)

	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	eng := core.NewEngine(h, core.StrongConfig(false), bal, r.Split())

	const runs = 6
	var mlSum, flatSum int64
	for i := 0; i < runs; i++ {
		p, st := ml.Partition(r.Split())
		_ = p
		mlSum += st.Cut
		fp := partition.New(h)
		fp.RandomBalanced(r.Split(), bal)
		flatSum += eng.Run(fp).Cut
	}
	if mlSum >= flatSum {
		t.Fatalf("ML avg cut (%d) not better than flat (%d)", mlSum/runs, flatSum/runs)
	}
}

func TestVCycleNeverWorsens(t *testing.T) {
	h := testInstance(t, 5, 700)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	r := rng.New(6)
	p, _ := ml.Partition(r)
	before := p.Cut()
	st := ml.VCycle(p, r)
	if st.Cut > before {
		t.Fatalf("V-cycle worsened cut: %d -> %d", before, st.Cut)
	}
	if p.Cut() != p.CutFromScratch() || !p.Legal(bal) {
		t.Fatal("V-cycle broke partition invariants")
	}
}

func TestVCycleRepeatedStable(t *testing.T) {
	h := testInstance(t, 7, 500)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	r := rng.New(8)
	p, _ := ml.Partition(r)
	prev := p.Cut()
	for i := 0; i < 3; i++ {
		st := ml.VCycle(p, r)
		if st.Cut > prev {
			t.Fatalf("V-cycle %d worsened: %d -> %d", i, prev, st.Cut)
		}
		prev = st.Cut
	}
}

func TestMatchProducesPairsAndSingletons(t *testing.T) {
	h := testInstance(t, 9, 300)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	clusterOf, k := m.match(h, rng.New(1), nil, nil, h.TotalVertexWeight())
	if k <= 0 || k > h.NumVertices() {
		t.Fatalf("cluster count %d", k)
	}
	sizes := SortedClusterSizes(clusterOf, k)
	if sizes[0] < 1 || sizes[len(sizes)-1] > 2 {
		t.Fatalf("matching produced cluster sizes outside {1,2}: min=%d max=%d",
			sizes[0], sizes[len(sizes)-1])
	}
	// Matching must actually reduce the graph meaningfully on a structured
	// instance.
	if k > h.NumVertices()*3/4 {
		t.Fatalf("matching barely reduced: %d of %d", k, h.NumVertices())
	}
}

func TestMatchRespectsClusterCap(t *testing.T) {
	h := testInstance(t, 10, 300)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	cap64 := int64(5)
	clusterOf, k := m.match(h, rng.New(2), nil, nil, cap64)
	weight := make([]int64, k)
	count := make([]int, k)
	for v, c := range clusterOf {
		weight[c] += h.VertexWeight(int32(v))
		count[c]++
	}
	for c := range weight {
		if count[c] == 2 && weight[c] > cap64 {
			t.Fatalf("pair cluster %d weight %d exceeds cap %d", c, weight[c], cap64)
		}
	}
}

func TestRestrictedMatchingKeepsSides(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := testInstance(t, seed%100, 200)
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
		m := New(h, Config{Refine: core.StrongConfig(false)}, bal)
		r := rng.New(seed)
		sides := make([]uint8, h.NumVertices())
		for i := range sides {
			sides[i] = uint8(r.Intn(2))
		}
		clusterOf, k := m.match(h, r, sides, nil, h.TotalVertexWeight())
		sideOf := make([]int8, k)
		for i := range sideOf {
			sideOf[i] = -1
		}
		for v, c := range clusterOf {
			if sideOf[c] == -1 {
				sideOf[c] = int8(sides[v])
			} else if sideOf[c] != int8(sides[v]) {
				return false // cluster spans the cut
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CoarsestSize != 150 || c.InitialTries != 10 || c.MaxNetSizeForMatch != 64 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Refine.MaxIdleMoves != DefaultMaxIdleMoves {
		t.Fatalf("Refine.MaxIdleMoves default %d, want %d", c.Refine.MaxIdleMoves, DefaultMaxIdleMoves)
	}
	// Explicit values survive.
	c2 := Config{CoarsestSize: 99, Refine: core.Config{MaxIdleMoves: -1}}.withDefaults()
	if c2.CoarsestSize != 99 {
		t.Fatal("explicit CoarsestSize overridden")
	}
	if c2.Refine.MaxIdleMoves != -1 {
		t.Fatal("explicit full-pass MaxIdleMoves overridden")
	}
	if c3 := (Config{Refine: core.StrongConfig(true)}).withDefaults(); c3.Refine.MaxIdleMoves != 0 {
		t.Fatalf("CLIP refinement got an idle-move limit of %d, want the full pass", c3.Refine.MaxIdleMoves)
	}
}

// TestIdleLimitInertOnSmallInstances: a level never has more movable
// vertices than the instance, so at most DefaultMaxIdleMoves vertices the
// default limit cannot end a pass. Starts and V-cycles must then be byte-
// identical to full passes, work and move counts included.
func TestIdleLimitInertOnSmallInstances(t *testing.T) {
	h := testInstance(t, 13, DefaultMaxIdleMoves)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	full := core.StrongConfig(false)
	full.MaxIdleMoves = -1
	limited := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	unlimited := New(h, Config{Refine: full}, bal)
	for seed := uint64(1); seed <= 3; seed++ {
		pa, sa := limited.Partition(rng.New(seed))
		pb, sb := unlimited.Partition(rng.New(seed))
		va := limited.VCycle(pa, rng.New(seed+100))
		vb := unlimited.VCycle(pb, rng.New(seed+100))
		if sa != sb || va != vb {
			t.Fatalf("seed %d: stats differ: default %+v / %+v, full pass %+v / %+v", seed, sa, va, sb, vb)
		}
		if !slices.Equal(pa.Sides(), pb.Sides()) {
			t.Fatalf("seed %d: partitions differ", seed)
		}
	}
}

func TestDeterminism(t *testing.T) {
	h := testInstance(t, 11, 600)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	_, a := ml.Partition(rng.New(42))
	_, b := ml.Partition(rng.New(42))
	if a.Cut != b.Cut || a.Work != b.Work {
		t.Fatalf("ML not deterministic: %+v vs %+v", a, b)
	}
}

func TestTinyInstanceNoCoarsening(t *testing.T) {
	// Instances already below CoarsestSize must still partition correctly.
	b := hypergraph.NewBuilder(8, 8)
	b.AddVertices(8, 1)
	for i := int32(0); i < 8; i++ {
		b.AddEdge(1, i, (i+1)%8)
	}
	h := b.MustBuild()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.3)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	p, st := ml.Partition(rng.New(1))
	if !p.Legal(bal) || p.Cut() != p.CutFromScratch() {
		t.Fatal("tiny instance mishandled")
	}
	if st.Levels != 1 {
		t.Fatalf("unexpected coarsening of tiny instance: %d levels", st.Levels)
	}
	// A ring of 8 bisects with cut 2.
	if p.Cut() != 2 {
		t.Fatalf("ring cut %d, want 2", p.Cut())
	}
}

func TestCLIPRefinementWorks(t *testing.T) {
	h := testInstance(t, 13, 600)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	ml := New(h, Config{Refine: core.StrongConfig(true)}, bal)
	p, st := ml.Partition(rng.New(3))
	if !p.Legal(bal) || st.Cut != p.CutFromScratch() {
		t.Fatal("ML CLIP invalid result")
	}
}
