package partition

import (
	"testing"
	"testing/quick"

	"hgpart/internal/hypergraph"
	"hgpart/internal/rng"
)

func tinyGraph(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(4, 3)
	b.AddVertices(4, 1)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 1, 2, 3)
	b.AddEdge(1, 0, 3)
	return b.MustBuild()
}

func randomGraph(seed uint64, nv, ne int) *hypergraph.Hypergraph {
	r := rng.New(seed)
	b := hypergraph.NewBuilder(nv, ne)
	for i := 0; i < nv; i++ {
		b.AddVertex(int64(1 + r.Intn(10)))
	}
	for e := 0; e < ne; e++ {
		size := 2 + r.Intn(4)
		pins := make([]int32, size)
		for i := range pins {
			pins[i] = int32(r.Intn(nv))
		}
		b.AddEdge(1, pins...)
	}
	return b.MustBuild()
}

func TestNewBalanceBounds(t *testing.T) {
	b := NewBalance(1000, 0.02)
	if b.Lo != 490 || b.Hi != 510 {
		t.Fatalf("2%% of 1000: got [%d,%d], want [490,510]", b.Lo, b.Hi)
	}
	b = NewBalance(1000, 0.10)
	if b.Lo != 450 || b.Hi != 550 {
		t.Fatalf("10%% of 1000: got [%d,%d], want [450,550]", b.Lo, b.Hi)
	}
	if b.Slack() != 100 {
		t.Fatalf("slack %d", b.Slack())
	}
	if !b.Contains(500) || b.Contains(560) || b.Contains(440) {
		t.Fatal("Contains wrong")
	}
}

func TestNewBalanceRounding(t *testing.T) {
	// Odd totals must round so that an exact split remains legal.
	b := NewBalance(101, 0.02)
	if !b.Contains(50) && !b.Contains(51) {
		t.Fatalf("odd-total bisection infeasible: [%d,%d]", b.Lo, b.Hi)
	}
	if b.Hi > 101 {
		t.Fatalf("Hi %d exceeds total", b.Hi)
	}
}

func TestAssignAndCut(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	// net0={0,1} uncut; net1={1,2,3} cut (w2); net2={0,3} cut (w1)
	if p.Cut() != 3 {
		t.Fatalf("cut %d, want 3", p.Cut())
	}
	if p.Cut() != p.CutFromScratch() {
		t.Fatal("incremental != scratch")
	}
	if p.Area(0) != 2 || p.Area(1) != 2 {
		t.Fatalf("areas %d/%d", p.Area(0), p.Area(1))
	}
}

func TestAssignRejects(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 0, 1}); err == nil {
		t.Fatal("short side vector accepted")
	}
	if err := p.Assign([]uint8{0, 0, 1, 2}); err == nil {
		t.Fatal("side 2 accepted")
	}
	p.Fix(0, 1)
	if err := p.Assign([]uint8{0, 0, 1, 1}); err == nil {
		t.Fatal("assignment conflicting with fixed vertex accepted")
	}
}

func TestMoveUpdatesCutIncrementally(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	before := p.Cut()
	delta := p.Move(1) // vertex 1 to side 1
	if p.Cut() != before+delta {
		t.Fatal("Move delta inconsistent with Cut")
	}
	if p.Cut() != p.CutFromScratch() {
		t.Fatalf("incremental %d != scratch %d", p.Cut(), p.CutFromScratch())
	}
	if p.Side(1) != 1 {
		t.Fatal("side not flipped")
	}
}

func TestGainPredictsMove(t *testing.T) {
	// gain(v) must equal the cut decrease of moving v, for random states.
	if err := quick.Check(func(seed uint64) bool {
		h := randomGraph(seed, 25, 40)
		p := New(h)
		r := rng.New(seed ^ 0xabc)
		sides := make([]uint8, h.NumVertices())
		for i := range sides {
			sides[i] = uint8(r.Intn(2))
		}
		if err := p.Assign(sides); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			v := int32(r.Intn(h.NumVertices()))
			g := p.Gain(v)
			before := p.Cut()
			p.Move(v)
			if before-p.Cut() != g {
				return false
			}
			if p.Cut() != p.CutFromScratch() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveSequencePreservesInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomGraph(seed, 30, 50)
		p := New(h)
		r := rng.New(seed ^ 0xdef)
		total := h.TotalVertexWeight()
		for i := 0; i < 100; i++ {
			p.Move(int32(r.Intn(h.NumVertices())))
		}
		if p.Area(0)+p.Area(1) != total {
			return false
		}
		return p.Cut() == p.CutFromScratch()
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSideCount(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	// net1 = {1,2,3}: sides 1,1,0
	if p.SideCount(1, 0) != 1 || p.SideCount(1, 1) != 2 {
		t.Fatalf("side counts %d/%d", p.SideCount(1, 0), p.SideCount(1, 1))
	}
}

func TestFixedVertices(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	p.Fix(2, 1)
	if p.Side(2) != 1 {
		t.Fatal("Fix did not move vertex to its side")
	}
	if !p.IsFixed(2) || p.IsFixed(0) {
		t.Fatal("IsFixed wrong")
	}
	if p.NumFixed() != 1 {
		t.Fatalf("NumFixed %d", p.NumFixed())
	}
	bal := NewBalance(h.TotalVertexWeight(), 0.5)
	if p.MoveLegal(2, bal) {
		t.Fatal("fixed vertex reported movable")
	}
	p.Fix(2, Free)
	if p.IsFixed(2) {
		t.Fatal("unfix failed")
	}
}

func TestMovePanicsOnFixed(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	p.Fix(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("moving a fixed vertex did not panic")
		}
	}()
	p.Move(0)
}

func TestMoveLegal(t *testing.T) {
	h := tinyGraph(t) // 4 unit vertices
	p := New(h)
	if err := p.Assign([]uint8{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	tight := Balance{Lo: 2, Hi: 2} // exact bisection
	for v := int32(0); v < 4; v++ {
		if p.MoveLegal(v, tight) {
			t.Fatalf("move of %d legal under exact bisection", v)
		}
	}
	loose := Balance{Lo: 1, Hi: 3}
	if !p.MoveLegal(0, loose) {
		t.Fatal("move illegal under loose balance")
	}
}

func TestBalanceViolation(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	b := Balance{Lo: 1, Hi: 3}
	// side0=4 exceeds Hi by 1; side1=0 under Lo by 1.
	if got := p.BalanceViolation(b); got != 2 {
		t.Fatalf("violation %d, want 2", got)
	}
	if p.Legal(b) {
		t.Fatal("illegal state reported legal")
	}
}

func TestCopyIndependence(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if err := p.Assign([]uint8{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	cp := p.Copy()
	p.Move(0)
	if cp.Side(0) != 0 {
		t.Fatal("copy mutated by original's Move")
	}
	if cp.Cut() != cp.CutFromScratch() {
		t.Fatal("copy inconsistent")
	}
}

func TestRandomBalancedLegality(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomGraph(seed, 60, 80)
		p := New(h)
		bal := NewBalance(h.TotalVertexWeight(), 0.10)
		p.RandomBalanced(rng.New(seed), bal)
		return p.Legal(bal) && p.Cut() == p.CutFromScratch()
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBalancedRespectsFixed(t *testing.T) {
	h := randomGraph(7, 50, 60)
	p := New(h)
	p.Fix(3, 1)
	p.Fix(9, 0)
	bal := NewBalance(h.TotalVertexWeight(), 0.10)
	p.RandomBalanced(rng.New(1), bal)
	if p.Side(3) != 1 || p.Side(9) != 0 {
		t.Fatal("RandomBalanced moved fixed vertices")
	}
}

func TestSidesReturnsCopy(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	s := p.Sides()
	s[0] = 1
	if p.Side(0) != 0 {
		t.Fatal("Sides aliases internal state")
	}
}

func TestFixedSideAccessor(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	if p.FixedSide(0) != Free {
		t.Fatal("default not Free")
	}
	p.Fix(0, 1)
	if p.FixedSide(0) != 1 {
		t.Fatal("FixedSide after Fix")
	}
}

func TestNewBalanceClamping(t *testing.T) {
	// Very loose tolerance must clamp Hi to total and Lo to >= 0.
	b := NewBalance(10, 3.0)
	if b.Hi > 10 || b.Lo < 0 {
		t.Fatalf("bounds not clamped: [%d,%d]", b.Lo, b.Hi)
	}
}

func TestRandomBalancedRepairsSkewedWeights(t *testing.T) {
	// One huge vertex plus dust: greedy fill overshoots and the repair pass
	// must pull the light side back above Lo when feasible.
	b := hypergraph.NewBuilder(21, 0)
	big := b.AddVertex(100)
	for i := 0; i < 20; i++ {
		b.AddVertex(5)
	}
	_ = big
	h := b.MustBuild()
	// total 200; tolerance 0.2 -> [80,120]: the macro must sit alone-ish.
	bal := NewBalance(h.TotalVertexWeight(), 0.2)
	for seed := uint64(0); seed < 10; seed++ {
		p := New(h)
		p.RandomBalanced(rng.New(seed), bal)
		if !p.Legal(bal) {
			t.Fatalf("seed %d: RandomBalanced failed on skewed weights: %d/%d",
				seed, p.Area(0), p.Area(1))
		}
	}
}

// TestNewMatchesAssignAllZero: New derives its all-on-side-0 state without
// a pin sweep; it must equal what a full recount of that state gives.
func TestNewMatchesAssignAllZero(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomGraph(seed, 1+int(seed%50), int(seed%70))
		got := New(h)
		want := New(h)
		if err := want.Assign(make([]uint8, h.NumVertices())); err != nil {
			t.Fatal(err)
		}
		if got.Cut() != want.Cut() || got.Area(0) != want.Area(0) || got.Area(1) != want.Area(1) {
			return false
		}
		for e := int32(0); e < int32(h.NumEdges()); e++ {
			if got.SideCount(e, 0) != want.SideCount(e, 0) || got.SideCount(e, 1) != want.SideCount(e, 1) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsBadShapes(t *testing.T) {
	h := tinyGraph(t)
	p := New(h)
	p.Fix(2, 1)
	counts := p.Counts()
	area := [2]int64{p.Area(0), p.Area(1)}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"short sides", p.Load([]uint8{0, 0, 1}, counts, area, p.Cut())},
		{"invalid side", p.Load([]uint8{0, 2, 1, 0}, counts, area, p.Cut())},
		{"fixed side", p.Load([]uint8{0, 0, 0, 0}, counts, area, p.Cut())},
		{"short counts", p.Load([]uint8{0, 0, 1, 0}, counts[:1], area, p.Cut())},
	} {
		if c.err == nil {
			t.Errorf("%s: Load accepted it", c.name)
		}
	}
}
