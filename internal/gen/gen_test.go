package gen

import (
	"math"
	"testing"

	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func baseSpec() Spec {
	return Spec{
		Name:          "t",
		Cells:         2000,
		Nets:          2200,
		AvgNetSize:    3.6,
		NumMacros:     8,
		MaxMacroFrac:  0.05,
		NumGlobalNets: 2,
		GlobalNetFrac: 0.01,
		Locality:      2,
		Seed:          1,
	}
}

func TestGenerateBasicValidity(t *testing.T) {
	h, err := Generate(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 2000 {
		t.Fatalf("cells %d", h.NumVertices())
	}
	// Nets can shrink slightly (dedup to <2 pins) but must stay close.
	if h.NumEdges() < 2100 || h.NumEdges() > 2202 {
		t.Fatalf("nets %d", h.NumEdges())
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(baseSpec())
	b := MustGenerate(baseSpec())
	if a.NumEdges() != b.NumEdges() || a.NumPins() != b.NumPins() ||
		a.TotalVertexWeight() != b.TotalVertexWeight() {
		t.Fatal("identical specs produced different hypergraphs")
	}
	for e := 0; e < a.NumEdges(); e++ {
		pa, pb := a.Pins(int32(e)), b.Pins(int32(e))
		if len(pa) != len(pb) {
			t.Fatalf("edge %d size differs", e)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("edge %d pin %d differs", e, i)
			}
		}
	}
}

func TestSeedChangesInstance(t *testing.T) {
	a := MustGenerate(baseSpec())
	s2 := baseSpec()
	s2.Seed = 2
	b := MustGenerate(s2)
	if a.NumPins() == b.NumPins() && a.TotalVertexWeight() == b.TotalVertexWeight() {
		t.Fatal("different seeds produced suspiciously identical instances")
	}
}

func TestSalientAttributes(t *testing.T) {
	// The §2.1 checklist: sparsity, avg net size 3-5, weight skew, huge nets.
	h := MustGenerate(baseSpec())
	s := hypergraph.ComputeStats(h)
	if s.AvgNetSize < 2.8 || s.AvgNetSize > 5.0 {
		t.Fatalf("avg net size %.2f outside [2.8,5]", s.AvgNetSize)
	}
	ratio := float64(s.Edges) / float64(s.Vertices)
	if ratio < 0.8 || ratio > 1.4 {
		t.Fatalf("sparsity |E|/|V| = %.2f not near 1", ratio)
	}
	if s.WeightSkew < 5 {
		t.Fatalf("weight skew %.1f too small — macros missing", s.WeightSkew)
	}
	if s.MaxNetSize < int(0.005*float64(s.Vertices)) {
		t.Fatalf("no clock-like global net: max size %d", s.MaxNetSize)
	}
}

func TestMacroExceedsCorkThreshold(t *testing.T) {
	// The largest macro must exceed the 2%-tolerance balance slack so the
	// corking experiments are actually exercised.
	h := MustGenerate(baseSpec())
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	if h.MaxVertexWeight() <= bal.Slack() {
		t.Fatalf("max weight %d does not exceed 2%% slack %d",
			h.MaxVertexWeight(), bal.Slack())
	}
}

func TestUnitAreaMode(t *testing.T) {
	s := baseSpec()
	s.UnitArea = true
	h := MustGenerate(s)
	if h.MaxVertexWeight() != 1 || h.TotalVertexWeight() != int64(s.Cells) {
		t.Fatal("unit-area mode produced non-unit weights")
	}
}

func TestLocalityReducesCut(t *testing.T) {
	// Structured instances must have far smaller optimized cuts than pin
	// count; verify locality by comparing a random balanced cut with the
	// number of nets (a local instance has most nets fully on one side
	// after sorting by index).
	h := MustGenerate(baseSpec())
	// Index bisection: first half vs second half exploits generator
	// locality directly.
	p := partition.New(h)
	sides := make([]uint8, h.NumVertices())
	for i := h.NumVertices() / 2; i < h.NumVertices(); i++ {
		sides[i] = 1
	}
	if err := p.Assign(sides); err != nil {
		t.Fatal(err)
	}
	indexCut := p.Cut()

	rp := partition.New(h)
	r := rng.New(9)
	rsides := make([]uint8, h.NumVertices())
	for i := range rsides {
		rsides[i] = uint8(r.Intn(2))
	}
	if err := rp.Assign(rsides); err != nil {
		t.Fatal(err)
	}
	randomCut := rp.Cut()
	if float64(indexCut) > 0.5*float64(randomCut) {
		t.Fatalf("no locality: index-bisection cut %d vs random %d", indexCut, randomCut)
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{Cells: 2, Nets: 5, AvgNetSize: 3},
		{Cells: 100, Nets: 0, AvgNetSize: 3},
		{Cells: 100, Nets: 10, AvgNetSize: 1.2},
		{Cells: 100, Nets: 10, AvgNetSize: 3, MaxMacroFrac: 0.5},
		{Cells: 100, Nets: 10, AvgNetSize: 3, GlobalNetFrac: 0.9},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic")
		}
	}()
	MustGenerate(Spec{})
}

func TestAllIBMProfilesScaled(t *testing.T) {
	for i := 1; i <= 18; i++ {
		spec := Scaled(MustIBMProfile(i), 0.02)
		h, err := Generate(spec)
		if err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
	}
}

func TestIBMProfileCounts(t *testing.T) {
	spec := MustIBMProfile(1)
	if spec.Cells != 12752 || spec.Nets != 14111 {
		t.Fatalf("ibm01 counts wrong: %d/%d", spec.Cells, spec.Nets)
	}
	if spec.Name != "ibm01-like" {
		t.Fatalf("name %q", spec.Name)
	}
	if _, err := IBMProfile(0); err == nil {
		t.Fatal("profile 0 accepted")
	}
	if _, err := IBMProfile(19); err == nil {
		t.Fatal("profile 19 accepted")
	}
}

func TestIBM05HasNoMacros(t *testing.T) {
	// ibm05 is the known exception: no large cells. Its stand-in must
	// preserve that, since corking results differ qualitatively there.
	spec := MustIBMProfile(5)
	if spec.NumMacros != 0 || spec.MaxMacroFrac != 0 {
		t.Fatalf("ibm05 should have no macros: %+v", spec)
	}
	h := MustGenerate(Scaled(spec, 0.05))
	s := hypergraph.ComputeStats(h)
	if s.WeightSkew > 20 {
		t.Fatalf("ibm05-like has macro-level skew %.1f", s.WeightSkew)
	}
}

func TestScaledPreservesShape(t *testing.T) {
	spec := MustIBMProfile(1)
	small := Scaled(spec, 0.1)
	if small.Cells != int(math.Round(float64(spec.Cells)*0.1)) {
		t.Fatalf("scaled cells %d", small.Cells)
	}
	if small.AvgNetSize != spec.AvgNetSize {
		t.Fatal("scaling changed net-size distribution")
	}
	if small.Name == spec.Name {
		t.Fatal("scaled name should be annotated")
	}
	h := MustGenerate(small)
	s := hypergraph.ComputeStats(h)
	if s.AvgNetSize < 2.5 || s.AvgNetSize > 5 {
		t.Fatalf("scaled avg net size %.2f", s.AvgNetSize)
	}
}

func TestScaledPanicsOnBadFactor(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Scaled(%v) did not panic", f)
				}
			}()
			Scaled(baseSpec(), f)
		}()
	}
}

func TestAvgNetSizeTracksTarget(t *testing.T) {
	for _, target := range []float64{2.6, 3.5, 4.5} {
		s := baseSpec()
		s.AvgNetSize = target
		s.NumGlobalNets = 0
		h := MustGenerate(s)
		got := float64(h.NumPins()) / float64(h.NumEdges())
		// Dedup trims a little; allow a modest band.
		if math.Abs(got-target) > 0.55 {
			t.Fatalf("target %.1f produced avg %.2f", target, got)
		}
	}
}

func TestMacrosHaveHighDegree(t *testing.T) {
	// The paper's corking mechanism requires area and degree to correlate:
	// macros must sit in the top of the degree distribution.
	h := MustGenerate(baseSpec())
	// Identify macros (weight far above the cell palette maximum of 16).
	avgDeg := float64(h.NumPins()) / float64(h.NumVertices())
	macros := 0
	highDeg := 0
	for v := 0; v < h.NumVertices(); v++ {
		if h.VertexWeight(int32(v)) > 50 {
			macros++
			if float64(h.Degree(int32(v))) >= 2*avgDeg {
				highDeg++
			}
		}
	}
	if macros == 0 {
		t.Fatal("no macros found")
	}
	if highDeg*2 < macros {
		t.Fatalf("only %d/%d macros have >=2x average degree", highDeg, macros)
	}
}

func TestMCNCProfiles(t *testing.T) {
	names := MCNCNames()
	if len(names) != 10 {
		t.Fatalf("%d MCNC profiles", len(names))
	}
	for _, name := range names {
		spec, err := MCNCProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.UnitArea || spec.NumMacros != 0 || spec.NumGlobalNets != 0 {
			t.Fatalf("%s: MCNC profile must be unit-area macro-free: %+v", name, spec)
		}
		h, err := Generate(Scaled(spec, 0.3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := hypergraph.ComputeStats(h)
		if s.MaxVertexWeight != 1 {
			t.Fatalf("%s: non-unit areas", name)
		}
		if s.WeightSkew != 1 {
			t.Fatalf("%s: weight skew %.1f on unit instance", name, s.WeightSkew)
		}
	}
	if _, err := MCNCProfile("nope"); err == nil {
		t.Fatal("unknown MCNC profile accepted")
	}
}

func TestMCNCPrim2Counts(t *testing.T) {
	spec, err := MCNCProfile("prim2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cells != 3014 || spec.Nets != 3029 {
		t.Fatalf("prim2 counts %d/%d", spec.Cells, spec.Nets)
	}
}

func TestBenchmark(t *testing.T) {
	ibm1, mcnc := MustIBMProfile(1), func() Spec { s, _ := MCNCProfile("struct"); return s }()
	for _, tc := range []struct {
		name  string
		scale float64
		seed  uint64
		want  Spec
		canon string
	}{
		{"ibm01", 1, 0, ibm1, "ibm01"},
		{"ibm1", 0.1, 0, Scaled(ibm1, 0.1), "ibm01@0.1"},
		{"ibm1", 1, 7, func() Spec { s := ibm1; s.Seed = 7; return s }(), "ibm01#7"},
		{"mcnc:struct", 0.5, 3, func() Spec { s := Scaled(mcnc, 0.5); s.Seed = 3; return s }(), "mcnc:struct@0.5#3"},
	} {
		spec, canon, err := Benchmark(tc.name, tc.scale, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec != tc.want || canon != tc.canon {
			t.Errorf("Benchmark(%q, %g, %d) = %+v, %q; want %+v, %q",
				tc.name, tc.scale, tc.seed, spec, canon, tc.want, tc.canon)
		}
	}
	for _, name := range []string{"ibm19", "ibmx", "mcnc:nope", "struct", ""} {
		if _, _, err := Benchmark(name, 1, 0); err == nil {
			t.Errorf("Benchmark(%q) accepted", name)
		}
	}
}
