package hgpart

import "testing"

func testGraph(t testing.TB) *Hypergraph {
	t.Helper()
	return MustGenerate(Scaled(MustIBMProfile(1), 0.05))
}

func TestBisectML(t *testing.T) {
	h := testGraph(t)
	p, res, err := Bisect(h, BisectOptions{Tolerance: 0.02, Starts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bal := NewBalance(h.TotalVertexWeight(), 0.02)
	if !p.Legal(bal) {
		t.Fatal("illegal result")
	}
	if res.Cut != p.Cut() || p.Cut() != p.CutFromScratch() {
		t.Fatal("cut inconsistent")
	}
	if res.Work <= 0 {
		t.Fatal("no work recorded")
	}
}

func TestBisectEngines(t *testing.T) {
	h := testGraph(t)
	for _, kind := range []EngineKind{EngineML, EngineFlatFM, EngineFlatCLIP} {
		p, res, err := Bisect(h, BisectOptions{Engine: kind, Seed: 4})
		if err != nil {
			t.Fatalf("engine %d: %v", kind, err)
		}
		if p == nil || res.Cut <= 0 {
			t.Fatalf("engine %d produced nothing", kind)
		}
	}
	if _, _, err := Bisect(h, BisectOptions{Engine: EngineKind(99)}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestBisectDefaults(t *testing.T) {
	h := testGraph(t)
	// Zero options must fill sane defaults and succeed.
	p, _, err := Bisect(h, BisectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bal := NewBalance(h.TotalVertexWeight(), 0.02)
	if !p.Legal(bal) {
		t.Fatal("default tolerance should be 2%")
	}
}

func TestBisectDeterministic(t *testing.T) {
	h := testGraph(t)
	_, a, err := Bisect(h, BisectOptions{Seed: 9, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Bisect(h, BisectOptions{Seed: 9, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut || a.Work != b.Work {
		t.Fatalf("Bisect not deterministic: %+v vs %+v", a, b)
	}
}

func TestFacadeFMEngine(t *testing.T) {
	h := testGraph(t)
	bal := NewBalance(h.TotalVertexWeight(), 0.10)
	r := NewRNG(5)
	p := NewPartition(h)
	p.RandomBalanced(r, bal)
	start := p.Cut()
	eng := NewFMEngine(h, StrongFMConfig(false), bal, r)
	res := eng.Run(p)
	if res.Cut > start {
		t.Fatal("FM worsened")
	}
}

func TestFacadeHeuristicsAndMultistart(t *testing.T) {
	h := testGraph(t)
	bal := NewBalance(h.TotalVertexWeight(), 0.10)
	r := NewRNG(6)
	flat := NewFlatHeuristic("flat", h, StrongFMConfig(false), bal, r.Split())
	ml := NewMLHeuristic("ml", h, MLConfig{Refine: StrongFMConfig(false)}, bal, 1)
	for _, heur := range []Heuristic{flat, ml} {
		samples, best := MultistartSamples(heur, 3, r.Split())
		if len(samples) != 3 || best.P == nil {
			t.Fatalf("%s multistart broken", heur.Name())
		}
	}
}

func TestFacadePlace(t *testing.T) {
	h := testGraph(t)
	pl, err := Place(h, PlacerConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pl.HPWL(h) <= 0 {
		t.Fatal("zero HPWL")
	}
}

func TestFacadeStats(t *testing.T) {
	h := testGraph(t)
	s := ComputeStats(h)
	if s.Vertices != h.NumVertices() {
		t.Fatal("stats mismatch")
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder(4, 2)
	b.AddVertices(4, 2)
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 2, 3)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, res, err := Bisect(h, BisectOptions{Tolerance: 0.5, Engine: EngineFlatFM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 {
		t.Fatalf("two disjoint pairs should split with cut 0, got %d (sides %v)",
			res.Cut, p.Sides())
	}
}

func TestFacadeBaselines(t *testing.T) {
	tiny := MustGenerate(GenSpec{Name: "t", Cells: 16, Nets: 24, AvgNetSize: 2.6, Locality: 2, Seed: 2})
	bal := NewBalance(tiny.TotalVertexWeight(), 0.25)
	opt, err := ExactBisect(tiny, bal, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cut < 0 || len(opt.Sides) != tiny.NumVertices() {
		t.Fatalf("exact result malformed: %+v", opt)
	}

	h := testGraph(t)
	bal = NewBalance(h.TotalVertexWeight(), 0.10)
	p, sres, err := SpectralBisect(h, bal, SpectralOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Legal(bal) || sres.Cut != p.Cut() {
		t.Fatal("spectral facade result inconsistent")
	}
	// Spectral must not beat the proven optimum on the tiny instance.
	tp, tres, err := SpectralBisect(tiny, NewBalance(tiny.TotalVertexWeight(), 0.25), SpectralOptions{})
	if err == nil {
		if tres.Cut < opt.Cut {
			t.Fatalf("spectral (%d) beat optimum (%d)", tres.Cut, opt.Cut)
		}
		_ = tp
	}
}
