package core

import (
	"testing"
	"testing/quick"

	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// randomGraph builds a random connected-ish test hypergraph.
func randomGraph(seed uint64, nv, ne int, maxW int) *hypergraph.Hypergraph {
	r := rng.New(seed)
	b := hypergraph.NewBuilder(nv, ne)
	for i := 0; i < nv; i++ {
		b.AddVertex(int64(1 + r.Intn(maxW)))
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

// prepared returns a random legal starting partition for h under bal.
func prepared(h *hypergraph.Hypergraph, bal partition.Balance, seed uint64) *partition.P {
	p := partition.New(h)
	p.RandomBalanced(rng.New(seed), bal)
	return p
}

// allConfigs enumerates a representative config grid.
func allConfigs() []Config {
	var out []Config
	for _, clip := range []bool{false, true} {
		for _, upd := range []UpdatePolicy{AllDeltaGain, NonzeroOnly} {
			for _, bias := range []Bias{Away, Part0, Toward} {
				for _, ins := range []InsertionOrder{LIFO, FIFO, RandomOrder} {
					out = append(out, Config{
						CLIP: clip, Update: upd, Bias: bias, Insertion: ins,
						BestTie: MostBalanced, CorkGuard: clip,
					})
				}
			}
		}
	}
	return out
}

func TestRunNeverWorsensAndStaysLegal(t *testing.T) {
	h := randomGraph(1, 120, 200, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	for i, cfg := range allConfigs() {
		p := prepared(h, bal, uint64(i+10))
		start := p.Cut()
		eng := NewEngine(h, cfg, bal, rng.New(uint64(i)))
		res := eng.Run(p)
		if res.Cut > start {
			t.Fatalf("cfg %v worsened cut: %d -> %d", cfg, start, res.Cut)
		}
		if res.Cut != p.Cut() || p.Cut() != p.CutFromScratch() {
			t.Fatalf("cfg %v cut inconsistent: res=%d p=%d scratch=%d", cfg, res.Cut, p.Cut(), p.CutFromScratch())
		}
		if !p.Legal(bal) {
			t.Fatalf("cfg %v produced illegal partition", cfg)
		}
		if res.Passes < 1 {
			t.Fatalf("cfg %v reports %d passes", cfg, res.Passes)
		}
	}
}

func TestRunImprovesSubstantially(t *testing.T) {
	// On a structured instance FM must find far better than random cuts.
	h := localityGraph(2, 400)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	p := prepared(h, bal, 3)
	start := p.Cut()
	eng := NewEngine(h, StrongConfig(false), bal, rng.New(4))
	res := eng.Run(p)
	if res.Cut*2 > start {
		t.Fatalf("FM barely improved structured instance: %d -> %d", start, res.Cut)
	}
}

// localityGraph is a ring-of-cliques instance with an obvious small cut.
func localityGraph(seed uint64, n int) *hypergraph.Hypergraph {
	r := rng.New(seed)
	b := hypergraph.NewBuilder(n, 2*n)
	b.AddVertices(n, 1)
	for i := 0; i < n; i++ {
		// Local 3-pin nets.
		b.AddEdge(1, int32(i), int32((i+1)%n), int32((i+2)%n))
		if r.Intn(4) == 0 {
			b.AddEdge(1, int32(i), int32((i+r.Intn(5)+1)%n))
		}
	}
	return b.MustBuild()
}

func TestDeterminism(t *testing.T) {
	h := randomGraph(5, 100, 150, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	run := func() int64 {
		p := prepared(h, bal, 77)
		eng := NewEngine(h, StrongConfig(false), bal, rng.New(9))
		return eng.Run(p).Cut
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different cuts: %d vs %d", a, b)
	}
}

func TestRandomInsertionDeterministicGivenSeed(t *testing.T) {
	h := randomGraph(6, 100, 150, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	cfg := Config{Insertion: RandomOrder, Update: NonzeroOnly, BestTie: FirstBest}
	run := func(seed uint64) int64 {
		p := prepared(h, bal, 55)
		eng := NewEngine(h, cfg, bal, rng.New(seed))
		return eng.Run(p).Cut
	}
	if run(1) != run(1) {
		t.Fatal("Random insertion not reproducible from seed")
	}
}

func TestMaxPassesRespected(t *testing.T) {
	h := randomGraph(7, 150, 250, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	cfg := StrongConfig(false)
	cfg.MaxPasses = 1
	p := prepared(h, bal, 8)
	eng := NewEngine(h, cfg, bal, rng.New(1))
	res := eng.Run(p)
	if res.Passes != 1 {
		t.Fatalf("MaxPasses=1 but ran %d passes", res.Passes)
	}
}

func TestCorkGuardExcludesHeavyVertices(t *testing.T) {
	// Build an instance with one vertex heavier than the balance slack; the
	// guard must prevent it from ever moving.
	b := hypergraph.NewBuilder(12, 16)
	b.AddVertices(10, 10) // total 100 light
	heavy := b.AddVertex(40)
	b.AddVertex(40)
	for i := int32(0); i < 10; i++ {
		b.AddEdge(1, i, (i+1)%10)
		b.AddEdge(1, i, heavy)
	}
	h := b.MustBuild()
	// total = 180, 2% tolerance: slack = about 7 < 40.
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.04)
	if bal.Slack() >= 40 {
		t.Fatalf("test setup: slack %d not below heavy weight", bal.Slack())
	}
	cfg := StrongConfig(false)
	cfg.CorkGuard = true
	p := prepared(h, bal, 9)
	sideBefore := p.Side(heavy)
	eng := NewEngine(h, cfg, bal, rng.New(2))
	eng.Run(p)
	if p.Side(heavy) != sideBefore {
		t.Fatal("cork guard failed: heavy vertex moved")
	}
}

func TestFixedVerticesNeverMove(t *testing.T) {
	h := randomGraph(11, 80, 120, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	p := partition.New(h)
	p.Fix(0, 0)
	p.Fix(1, 1)
	p.Fix(2, 1)
	p.RandomBalanced(rng.New(3), bal)
	eng := NewEngine(h, StrongConfig(false), bal, rng.New(4))
	eng.Run(p)
	if p.Side(0) != 0 || p.Side(1) != 1 || p.Side(2) != 1 {
		t.Fatal("fixed vertex moved during FM")
	}
}

func TestCLIPTerminates(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		h := randomGraph(seed+20, 200, 300, 8)
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
		p := prepared(h, bal, seed)
		eng := NewEngine(h, StrongConfig(true), bal, rng.New(seed))
		res := eng.Run(p)
		if res.Cut != p.CutFromScratch() {
			t.Fatal("CLIP cut inconsistent")
		}
	}
}

func TestLookPastIllegal(t *testing.T) {
	h := randomGraph(31, 150, 220, 6)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	cfg := StrongConfig(false)
	cfg.LookPastIllegal = true
	p := prepared(h, bal, 5)
	start := p.Cut()
	eng := NewEngine(h, cfg, bal, rng.New(6))
	res := eng.Run(p)
	if res.Cut > start || !p.Legal(bal) {
		t.Fatal("LookPastIllegal broke the pass contract")
	}
}

func TestEngineRejectsForeignPartition(t *testing.T) {
	h1 := randomGraph(41, 30, 40, 2)
	h2 := randomGraph(42, 30, 40, 2)
	bal := partition.NewBalance(h1.TotalVertexWeight(), 0.10)
	eng := NewEngine(h1, StrongConfig(false), bal, rng.New(1))
	p := partition.New(h2)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign partition accepted")
		}
	}()
	eng.Run(p)
}

func TestWorkCounterMonotone(t *testing.T) {
	h := randomGraph(51, 200, 300, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	p := prepared(h, bal, 1)
	eng := NewEngine(h, StrongConfig(false), bal, rng.New(1))
	res := eng.Run(p)
	if res.Work <= 0 {
		t.Fatalf("work counter %d", res.Work)
	}
	if res.Moves <= 0 {
		t.Fatalf("moves %d", res.Moves)
	}
}

func TestUpdatePolicyIsObservable(t *testing.T) {
	// The paper's point about the zero-delta-gain decision: it is not a
	// no-op. Across a batch of starts the two policies must diverge in
	// trajectory (different cuts or different work) on at least one start.
	h := randomGraph(61, 300, 450, 4)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	run := func(u UpdatePolicy, seed uint64) Result {
		cfg := Config{Update: u, Insertion: LIFO, BestTie: FirstBest}
		p := prepared(h, bal, seed)
		eng := NewEngine(h, cfg, bal, rng.New(1))
		return eng.Run(p)
	}
	diverged := false
	for seed := uint64(0); seed < 8; seed++ {
		a := run(AllDeltaGain, seed)
		b := run(NonzeroOnly, seed)
		if a.Cut != b.Cut || a.Work != b.Work || a.Moves != b.Moves {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("AllDeltaGain and NonzeroOnly are behaviorally identical; the knob is dead")
	}
}

func TestPropertyFinalCutConsistency(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomGraph(seed, 60, 90, 5)
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
		cfgs := allConfigs()
		cfg := cfgs[int(seed%uint64(len(cfgs)))]
		p := prepared(h, bal, seed^0x55)
		start := p.Cut()
		eng := NewEngine(h, cfg, bal, rng.New(seed))
		res := eng.Run(p)
		return res.Cut <= start && res.Cut == p.CutFromScratch() && p.Legal(bal)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigStrings(t *testing.T) {
	cfg := StrongConfig(true)
	s := cfg.String()
	if s != "CLIP/Nonzero/Toward/LIFO/guarded" {
		t.Fatalf("Config.String = %q", s)
	}
	if AllDeltaGain.String() != "AllDeltaGain" || NonzeroOnly.String() != "Nonzero" {
		t.Fatal("UpdatePolicy strings")
	}
	if Away.String() != "Away" || Part0.String() != "Part0" || Toward.String() != "Toward" {
		t.Fatal("Bias strings")
	}
	if FirstBest.String() != "First" || LastBest.String() != "Last" || MostBalanced.String() != "Balance" {
		t.Fatal("BestTie strings")
	}
	if LIFO.String() != "LIFO" || FIFO.String() != "FIFO" || RandomOrder.String() != "Random" {
		t.Fatal("InsertionOrder strings")
	}
}

func TestNaiveAndStrongPresets(t *testing.T) {
	n := NaiveConfig(false)
	if n.CorkGuard || n.MaxPasses != 1 || n.Update != AllDeltaGain {
		t.Fatalf("NaiveConfig unexpected: %+v", n)
	}
	s := StrongConfig(true)
	if !s.CorkGuard || !s.CLIP || s.Update != NonzeroOnly {
		t.Fatalf("StrongConfig unexpected: %+v", s)
	}
}

func TestStrongBeatsNaiveOnAverage(t *testing.T) {
	// The paper's Table 2 phenomenon, as a regression test: over a batch of
	// starts on a weighted instance, the tuned config must clearly beat the
	// naive one on average cut.
	h := randomGraph(71, 500, 700, 12)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.05)
	avg := func(cfg Config) float64 {
		eng := NewEngine(h, cfg, bal, rng.New(1))
		var sum int64
		const runs = 10
		for i := 0; i < runs; i++ {
			p := prepared(h, bal, uint64(1000+i))
			sum += eng.Run(p).Cut
		}
		return float64(sum) / runs
	}
	naive, strong := avg(NaiveConfig(false)), avg(StrongConfig(false))
	if strong >= naive {
		t.Fatalf("strong (%.1f) not better than naive (%.1f)", strong, naive)
	}
}

// corkingInstance is a macro-heavy ring under a 2% balance: four macros far
// above the slack share nets with every small cell.
func corkingInstance() (*hypergraph.Hypergraph, partition.Balance) {
	b := hypergraph.NewBuilder(64, 0)
	var total int64
	for i := 0; i < 60; i++ {
		b.AddVertex(4)
		total += 4
	}
	for i := 0; i < 4; i++ {
		b.AddVertex(total / 8) // macros far above the 2% slack
	}
	for i := int32(0); i < 60; i++ {
		b.AddEdge(1, i, (i+1)%60, 60+(i%4))
		b.AddEdge(1, i, (i+7)%60)
	}
	h := b.MustBuild()
	return h, partition.NewBalance(h.TotalVertexWeight(), 0.02)
}

func TestCorkingTraceCounters(t *testing.T) {
	// Unguarded CLIP on a macro-heavy, tightly balanced instance must show
	// stuck terminations (the corking signature); the guard removes most of
	// them. This reproduces the paper's "traces of CLIP executions show
	// that corking actually occurs fairly often".
	h, bal := corkingInstance()
	r := rng.New(5)

	// A corked CLIP selection skips a whole side because an immovable cell
	// heads its top bucket. Count cork events and moves: corks should be
	// frequent without the guard and the guard should unlock far more moves.
	trace := func(guard bool) (corks, moves int64) {
		cfg := StrongConfig(true)
		cfg.CorkGuard = guard
		eng := NewEngine(h, cfg, bal, rng.New(1))
		for i := 0; i < 20; i++ {
			p := partition.New(h)
			p.RandomBalanced(r.Split(), bal)
			res := eng.Run(p)
			corks += res.CorkEvents
			moves += res.Moves
		}
		return corks, moves
	}
	corksUnguarded, movesUnguarded := trace(false)
	_, movesGuarded := trace(true)
	if corksUnguarded == 0 {
		t.Fatal("no cork events observed without the guard on a macro-heavy instance")
	}
	if movesGuarded <= movesUnguarded {
		t.Fatalf("guarded CLIP should move more (uncorked): %d vs %d moves",
			movesGuarded, movesUnguarded)
	}
}
