package multilevel

import (
	"slices"
	"testing"

	"hgpart/internal/core"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func makeFixed(n int, pin map[int]int8) []int8 {
	f := make([]int8, n)
	for i := range f {
		f[i] = partition.Free
	}
	for v, s := range pin {
		f[v] = s
	}
	return f
}

func TestPartitionFixedHonorsPins(t *testing.T) {
	h := testInstance(t, 21, 700)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)

	pins := map[int]int8{0: 0, 1: 1, 2: 1, 50: 0, 99: 1}
	fixed := makeFixed(h.NumVertices(), pins)
	p, st := ml.PartitionFixed(fixed, rng.New(22))

	for v, s := range pins {
		if p.Side(int32(v)) != uint8(s) {
			t.Fatalf("fixed vertex %d on side %d, pinned to %d", v, p.Side(int32(v)), s)
		}
		if !p.IsFixed(int32(v)) {
			t.Fatalf("vertex %d not marked fixed in result", v)
		}
	}
	if !p.Legal(bal) {
		t.Fatal("fixed ML result illegal")
	}
	if p.Cut() != p.CutFromScratch() || st.Cut != p.Cut() {
		t.Fatal("fixed ML cut inconsistent")
	}
}

func TestPartitionFixedNoPinsMatchesQuality(t *testing.T) {
	// Fixed vertices are an input to the one multilevel pipeline, so an
	// all-Free vector must give exactly Partition's sides and Stats.
	h := testInstance(t, 23, 600)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	fixed := makeFixed(h.NumVertices(), nil)
	for seed := uint64(1); seed <= 5; seed++ {
		pf, sf := ml.PartitionFixed(fixed, rng.New(seed))
		pu, su := ml.Partition(rng.New(seed))
		if sf != su {
			t.Fatalf("seed %d: stats differ: fixed %+v, free %+v", seed, sf, su)
		}
		if !slices.Equal(pf.Sides(), pu.Sides()) {
			t.Fatalf("seed %d: sides differ (cuts %d vs %d)", seed, pf.Cut(), pu.Cut())
		}
	}
}

func TestPartitionFixedManyTerminals(t *testing.T) {
	// Terminal-propagation-like load: 10% of vertices fixed, alternating.
	h := testInstance(t, 25, 800)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	pins := map[int]int8{}
	for v := 0; v < h.NumVertices()/10; v++ {
		pins[v*10] = int8(v % 2)
	}
	fixed := makeFixed(h.NumVertices(), pins)
	p, _ := ml.PartitionFixed(fixed, rng.New(26))
	for v, s := range pins {
		if p.Side(int32(v)) != uint8(s) {
			t.Fatalf("terminal %d escaped to side %d", v, p.Side(int32(v)))
		}
	}
	if !p.Legal(bal) {
		t.Fatal("illegal result with many terminals")
	}
}

func TestPartitionFixedAnchorsBiasSolution(t *testing.T) {
	// Pinning a block of mutually close vertices to side 0 must pull their
	// unfixed neighbors along: the anchored solution should place most of
	// the generator-adjacent block on side 0.
	h := testInstance(t, 27, 600)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	pins := map[int]int8{}
	for v := 0; v < 30; v++ { // the generator gives index locality
		pins[v] = 0
	}
	fixed := makeFixed(h.NumVertices(), pins)
	p, _ := ml.PartitionFixed(fixed, rng.New(28))
	onZero := 0
	for v := 30; v < 90; v++ {
		if p.Side(int32(v)) == 0 {
			onZero++
		}
	}
	if onZero < 30 {
		t.Fatalf("anchoring had no pull: only %d/60 neighbors on side 0", onZero)
	}
}

func TestMatchNeverMergesConflictingFixed(t *testing.T) {
	h := testInstance(t, 29, 300)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	m := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	r := rng.New(30)
	fixed := make([]int8, h.NumVertices())
	for i := range fixed {
		switch r.Intn(4) {
		case 0:
			fixed[i] = 0
		case 1:
			fixed[i] = 1
		default:
			fixed[i] = partition.Free
		}
	}
	clusterOf, k := m.match(h, r, nil, fixed, h.TotalVertexWeight())
	sideOf := make([]int8, k)
	for i := range sideOf {
		sideOf[i] = partition.Free
	}
	for v, c := range clusterOf {
		if fixed[v] == partition.Free {
			continue
		}
		if sideOf[c] == partition.Free {
			sideOf[c] = fixed[v]
		} else if sideOf[c] != fixed[v] {
			t.Fatalf("cluster %d merges vertices fixed to both sides", c)
		}
	}
}

func TestPartitionFixedPanicsOnBadLength(t *testing.T) {
	h := testInstance(t, 31, 200)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	ml := New(h, Config{Refine: core.StrongConfig(false)}, bal)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	ml.PartitionFixed(make([]int8, 3), rng.New(1))
}
