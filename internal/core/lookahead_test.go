package core

import (
	"testing"

	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func lookaheadConfig(depth int) Config {
	cfg := StrongConfig(false)
	cfg.LookaheadDepth = depth
	return cfg
}

func TestLookaheadInvariants(t *testing.T) {
	h := randomGraph(81, 200, 300, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	for _, depth := range []int{2, 3, 4} {
		p := prepared(h, bal, uint64(depth))
		start := p.Cut()
		eng := NewEngine(h, lookaheadConfig(depth), bal, rng.New(uint64(depth)))
		res := eng.Run(p)
		if res.Cut > start {
			t.Fatalf("depth %d worsened cut", depth)
		}
		if res.Cut != p.CutFromScratch() || !p.Legal(bal) {
			t.Fatalf("depth %d broke invariants", depth)
		}
	}
}

func TestLookaheadDeterministic(t *testing.T) {
	h := randomGraph(82, 150, 220, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	run := func() int64 {
		p := prepared(h, bal, 7)
		eng := NewEngine(h, lookaheadConfig(3), bal, rng.New(9))
		return eng.Run(p).Cut
	}
	if run() != run() {
		t.Fatal("lookahead not deterministic")
	}
}

func TestLookaheadChangesSelection(t *testing.T) {
	// The knob must be live: across several starts, depth-3 lookahead and
	// plain FM must diverge in at least one trajectory.
	h := randomGraph(83, 250, 380, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	plain := NewEngine(h, lookaheadConfig(0), bal, rng.New(1))
	look := NewEngine(h, lookaheadConfig(3), bal, rng.New(1))
	diverged := false
	for seed := uint64(0); seed < 8; seed++ {
		p1 := prepared(h, bal, seed)
		p2 := prepared(h, bal, seed)
		r1 := plain.Run(p1)
		r2 := look.Run(p2)
		if r1.Cut != r2.Cut || r1.Moves != r2.Moves {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("lookahead is behaviorally identical to plain FM; the knob is dead")
	}
}

func TestGainLevelsAgainstHandComputation(t *testing.T) {
	// Path instance: nets {0,1}, {1,2}, {2,3} with all vertices on side 0
	// except vertex 3. For v=1 (side 0, dst 1), with nothing locked:
	//   net {0,1}: freeSrcOthers=1 -> +1 at level 2; dst free=0 -> -1 at level 1 (not recorded).
	//   net {1,2}: freeSrcOthers=1 -> +1 at level 2; dst free=0 -> level 1.
	// So level-2 entry = +2.
	b := hypergraph.NewBuilder(4, 3)
	b.AddVertices(4, 1)
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 1, 2)
	b.AddEdge(1, 2, 3)
	h := b.MustBuild()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.6)
	eng := NewEngine(h, lookaheadConfig(3), bal, rng.New(1))
	p := partition.New(h)
	if err := p.Assign([]uint8{0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	eng.loadMirror(p)
	eng.resetImmobile(p)
	vec := eng.gainLevels(1, 3, nil)
	if len(vec) != 2 {
		t.Fatalf("vector length %d", len(vec))
	}
	if vec[0] != 2 {
		t.Fatalf("level-2 gain of v1 = %d, want 2", vec[0])
	}
	// v=2 (side 0): net {1,2}: freeSrcOthers=1 -> +1 at level 2.
	// net {2,3}: freeSrcOthers=0 -> level 1; dst side ({3}) free=1 -> -1 at level 2.
	vec = eng.gainLevels(2, 3, nil)
	if vec[0] != 0 {
		t.Fatalf("level-2 gain of v2 = %d, want 0", vec[0])
	}
}

func TestGainLevelsRespectLockedPins(t *testing.T) {
	// Locking a pin on a side removes that side's nets from the lookahead
	// ledger (a net with a locked source pin can never become uncritical).
	b := hypergraph.NewBuilder(3, 1)
	b.AddVertices(3, 1)
	b.AddEdge(1, 0, 1, 2)
	h := b.MustBuild()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.9)
	eng := NewEngine(h, lookaheadConfig(3), bal, rng.New(1))
	p := partition.New(h)
	if err := p.Assign([]uint8{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	eng.loadMirror(p)
	eng.resetImmobile(p)
	// Without locks, for v0 (side 0 -> 1) on net {0,1,2}:
	// src: freeSrcOthers=1 -> +1 at level 2; dst: freeDst=1 -> -1 at level
	// 2. They cancel: level-2 gain 0.
	vec := eng.gainLevels(0, 3, nil)
	if vec[0] != 0 {
		t.Fatalf("unlocked level-2 = %d, want 0", vec[0])
	}
	// Fix v1 on side 0: the source side now has a locked pin, so the +1
	// source term disappears and only the -1 destination term remains.
	p.Fix(1, 0)
	eng.loadMirror(p)
	eng.resetImmobile(p)
	vec = eng.gainLevels(0, 3, nil)
	if vec[0] != -1 {
		t.Fatalf("locked level-2 = %d, want -1", vec[0])
	}
}

func TestLookaheadWithCLIP(t *testing.T) {
	h := randomGraph(84, 200, 300, 5)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.05)
	cfg := StrongConfig(true)
	cfg.LookaheadDepth = 2
	p := prepared(h, bal, 3)
	eng := NewEngine(h, cfg, bal, rng.New(2))
	res := eng.Run(p)
	if res.Cut != p.CutFromScratch() || !p.Legal(bal) {
		t.Fatal("CLIP+lookahead broke invariants")
	}
}

func TestBoundaryOnlyInvariants(t *testing.T) {
	h := randomGraph(91, 250, 380, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	cfg := StrongConfig(false)
	cfg.BoundaryOnly = true
	for seed := uint64(0); seed < 5; seed++ {
		p := prepared(h, bal, seed)
		start := p.Cut()
		eng := NewEngine(h, cfg, bal, rng.New(seed))
		res := eng.Run(p)
		if res.Cut > start || res.Cut != p.CutFromScratch() || !p.Legal(bal) {
			t.Fatalf("seed %d: boundary FM broke invariants", seed)
		}
	}
}

func TestBoundaryOnlyDoesLessWorkAsRefiner(t *testing.T) {
	// On a good starting solution over a structured instance (small
	// boundary), boundary-only refinement must cost clearly less work than
	// full refinement without losing much quality. (On random graphs nearly
	// every vertex is boundary and the optimization cannot help.)
	h := localityGraph(92, 600)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	base := prepared(h, bal, 1)
	eng := NewEngine(h, StrongConfig(false), bal, rng.New(1))
	eng.Run(base) // now a good solution

	run := func(boundary bool) (int64, int64) {
		cfg := StrongConfig(false)
		cfg.BoundaryOnly = boundary
		p := base.Copy()
		// Perturb slightly so refinement has something to do.
		r := rng.New(7)
		for i := 0; i < 20; i++ {
			v := int32(r.Intn(h.NumVertices()))
			if p.MoveLegal(v, bal) {
				p.Move(v)
			}
		}
		e2 := NewEngine(h, cfg, bal, rng.New(2))
		res := e2.Run(p)
		return res.Cut, res.Work
	}
	fullCut, fullWork := run(false)
	bCut, bWork := run(true)
	if bWork >= fullWork {
		t.Fatalf("boundary refinement not cheaper: %d vs %d work", bWork, fullWork)
	}
	if float64(bCut) > 1.3*float64(fullCut)+10 {
		t.Fatalf("boundary refinement too weak: cut %d vs %d", bCut, fullCut)
	}
}

func TestBoundaryOnlyLazyInsertion(t *testing.T) {
	// A pass starting from a zero-cut solution has an empty boundary; the
	// engine must terminate cleanly (no moves) rather than spin or panic.
	b := hypergraph.NewBuilder(8, 4)
	b.AddVertices(8, 1)
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 2, 3)
	b.AddEdge(1, 4, 5)
	b.AddEdge(1, 6, 7)
	h := b.MustBuild()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.5)
	cfg := StrongConfig(false)
	cfg.BoundaryOnly = true
	p := partition.New(h)
	if err := p.Assign([]uint8{0, 0, 0, 0, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(h, cfg, bal, rng.New(1))
	res := eng.Run(p)
	if res.Cut != 0 || res.Moves != 0 {
		t.Fatalf("zero-cut start should be a no-op: %+v", res)
	}
}

func TestSkipBucketOnlyInvariants(t *testing.T) {
	h := randomGraph(95, 250, 380, 6)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	cfg := StrongConfig(false)
	cfg.SkipBucketOnly = true
	cfg.CorkGuard = false // make illegal heads common
	for seed := uint64(0); seed < 5; seed++ {
		p := prepared(h, bal, seed)
		start := p.Cut()
		eng := NewEngine(h, cfg, bal, rng.New(seed))
		res := eng.Run(p)
		if res.Cut > start || res.Cut != p.CutFromScratch() || !p.Legal(bal) {
			t.Fatalf("seed %d: SkipBucketOnly broke invariants", seed)
		}
	}
}

func TestSkipBucketOnlyMakesMoreMoves(t *testing.T) {
	// Plant a high-gain, immovably heavy macro at the head of each side's
	// top bucket (plain FM; gains are real, not cumulative). Skipping the
	// whole side kills the pass immediately; skipping only the corked
	// bucket lets the light cells underneath keep moving.
	//
	// Layout: macro0 (w50, side 0) crosses to every side-1 light cell;
	// macro1 (w50, side 1) crosses to every side-0 light cell. Each macro's
	// gain is +20 (all its nets uncut by moving it) — top bucket — but its
	// weight makes every move illegal at 5% tolerance.
	b := hypergraph.NewBuilder(42, 0)
	m0 := b.AddVertex(50)
	m1 := b.AddVertex(50)
	for i := 0; i < 40; i++ {
		b.AddVertex(4)
	}
	light := func(i int) int32 { return int32(2 + i) } // 0..19 side 0, 20..39 side 1
	for i := 0; i < 20; i++ {
		b.AddEdge(1, m0, light(20+i)) // macro0 to side-1 cells
		b.AddEdge(1, m1, light(i))    // macro1 to side-0 cells
	}
	// Light-cell nets crossing the cut so they have movable gain.
	for i := 0; i < 20; i++ {
		b.AddEdge(1, light(i), light(20+(i+3)%20))
	}
	h := b.MustBuild()
	sides := make([]uint8, 42)
	sides[m1] = 1
	for i := 20; i < 40; i++ {
		sides[light(i)] = 1
	}
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.05)

	run := func(skipBucket bool) int64 {
		cfg := Config{
			Update: NonzeroOnly, Bias: Toward, Insertion: LIFO,
			CorkGuard: false, SkipBucketOnly: skipBucket, MaxPasses: 1,
		}
		p := partition.New(h)
		if err := p.Assign(sides); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(h, cfg, bal, rng.New(1))
		return eng.Run(p).Moves
	}
	side := run(false)
	bucket := run(true)
	if side != 0 {
		t.Fatalf("setup broken: skip-side should cork immediately, made %d moves", side)
	}
	if bucket <= side {
		t.Fatalf("SkipBucketOnly did not unlock moves: %d vs %d", bucket, side)
	}
}
