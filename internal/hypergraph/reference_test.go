package hypergraph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hgpart/internal/rng"
)

// Differential tests: the flat-arena Builder and the shared CSR assembly in
// Contract must produce exactly the hypergraph the earlier per-net-slice
// implementations below produced. Every cache key, journal and partition
// downstream depends on the edge order, the pin order and the vertex ->
// edge order being unchanged.

// referenceBuild is the earlier Builder.Build over per-net pin slices.
func referenceBuild(name string, vertexWeights, edgeWeights []int64, pins [][]int32, keepSingleton bool) *Hypergraph {
	nv := len(vertexWeights)
	type net struct {
		w    int64
		pins []int32
	}
	nets := make([]net, 0, len(pins))
	for e, ps := range pins {
		uniq := referenceDedup(ps)
		if len(uniq) < 2 && !keepSingleton {
			continue
		}
		nets = append(nets, net{w: edgeWeights[e], pins: uniq})
	}
	h := &Hypergraph{Name: name}
	h.vertexWeight = make([]int64, nv)
	copy(h.vertexWeight, vertexWeights)
	h.edgeWeight = make([]int64, len(nets))
	h.eptr = make([]int32, len(nets)+1)
	for e, n := range nets {
		h.edgeWeight[e] = n.w
		h.eind = append(h.eind, n.pins...)
		h.eptr[e+1] = int32(len(h.eind))
		if len(n.pins) > h.maxEdgeSize {
			h.maxEdgeSize = len(n.pins)
		}
	}
	referenceTranspose(h)
	return h
}

// referenceContract is the earlier Hypergraph.Contract.
func referenceContract(h *Hypergraph, clusterOf []int32, numClusters int) (*Hypergraph, []int32) {
	coarse := &Hypergraph{Name: h.Name}
	coarse.vertexWeight = make([]int64, numClusters)
	for v, c := range clusterOf {
		coarse.vertexWeight[c] += h.vertexWeight[v]
	}
	type coarseNet struct {
		pins   []int32
		weight int64
		rep    int32
	}
	byHash := make(map[uint64][]int)
	var nets []coarseNet
	for e := 0; e < h.NumEdges(); e++ {
		var projected []int32
		for _, v := range h.Pins(int32(e)) {
			projected = append(projected, clusterOf[v])
		}
		uniq := referenceDedup(projected)
		if len(uniq) < 2 {
			continue
		}
		hsh := hashPins(uniq)
		merged := false
		for _, idx := range byHash[hsh] {
			if slices.Equal(nets[idx].pins, uniq) {
				nets[idx].weight += h.edgeWeight[e]
				merged = true
				break
			}
		}
		if !merged {
			nets = append(nets, coarseNet{pins: uniq, weight: h.edgeWeight[e], rep: int32(e)})
			byHash[hsh] = append(byHash[hsh], len(nets)-1)
		}
	}
	coarse.edgeWeight = make([]int64, len(nets))
	coarse.eptr = make([]int32, len(nets)+1)
	repOf := make([]int32, len(nets))
	for e, n := range nets {
		coarse.edgeWeight[e] = n.weight
		coarse.eind = append(coarse.eind, n.pins...)
		coarse.eptr[e+1] = int32(len(coarse.eind))
		repOf[e] = n.rep
		if len(n.pins) > coarse.maxEdgeSize {
			coarse.maxEdgeSize = len(n.pins)
		}
	}
	referenceTranspose(coarse)
	return coarse, repOf
}

func referenceDedup(ps []int32) []int32 {
	uniq := append([]int32(nil), ps...)
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	out := uniq[:0]
	for i, p := range uniq {
		if i == 0 || p != uniq[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func referenceTranspose(h *Hypergraph) {
	nv := len(h.vertexWeight)
	h.vptr = make([]int32, nv+1)
	for _, v := range h.eind {
		h.vptr[v+1]++
	}
	for v := 0; v < nv; v++ {
		h.vptr[v+1] += h.vptr[v]
	}
	h.vind = make([]int32, len(h.eind))
	cursor := make([]int32, nv)
	for e := 0; e < len(h.edgeWeight); e++ {
		for _, v := range h.Pins(int32(e)) {
			h.vind[h.vptr[v]+cursor[v]] = int32(e)
			cursor[v]++
		}
	}
	for _, w := range h.vertexWeight {
		h.totalVertexWeight += w
		if w > h.maxVertexWeight {
			h.maxVertexWeight = w
		}
	}
}

// sameHypergraph reports whether a and b are field-for-field equal.
func sameHypergraph(a, b *Hypergraph) bool {
	return a.Name == b.Name &&
		slices.Equal(a.vertexWeight, b.vertexWeight) &&
		slices.Equal(a.edgeWeight, b.edgeWeight) &&
		slices.Equal(a.eptr, b.eptr) && slices.Equal(a.eind, b.eind) &&
		slices.Equal(a.vptr, b.vptr) && slices.Equal(a.vind, b.vind) &&
		a.totalVertexWeight == b.totalVertexWeight &&
		a.maxVertexWeight == b.maxVertexWeight &&
		a.maxEdgeSize == b.maxEdgeSize
}

func TestBuildMatchesReference(t *testing.T) {
	if err := quick.Check(func(seed uint64, keep bool) bool {
		r := rng.New(seed)
		nv, ne := 1+r.Intn(30), r.Intn(40)
		vw := make([]int64, nv)
		for v := range vw {
			vw[v] = int64(r.Intn(9))
		}
		ew := make([]int64, ne)
		pins := make([][]int32, ne)
		b := NewBuilder(r.Intn(4), r.Intn(4)) // hints too small: the arena must grow
		b.Name = "ref"
		b.KeepSingleton = keep
		for _, w := range vw {
			b.AddVertex(w)
		}
		for e := range pins {
			ew[e] = int64(1 + r.Intn(5))
			for i := r.Intn(7); i > 0; i-- { // sizes 0-6 with repeats
				pins[e] = append(pins[e], int32(r.Intn(nv)))
			}
			b.AddEdge(ew[e], pins[e]...)
		}
		got := b.MustBuild()
		again := b.MustBuild() // Build must leave the Builder intact
		want := referenceBuild("ref", vw, ew, pins, keep)
		return sameHypergraph(got, want) && sameHypergraph(again, want)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContractMatchesReference(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomHypergraph(seed, 40, 80)
		r := rng.New(seed ^ 3)
		k := 1 + r.Intn(20)
		clusterOf := make([]int32, h.NumVertices())
		for v := range clusterOf {
			clusterOf[v] = int32(r.Intn(k))
		}
		got, gotRep := h.Contract(clusterOf, k)
		want, wantRep := referenceContract(h, clusterOf, k)
		return sameHypergraph(got, want) && slices.Equal(gotRep, wantRep)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroBuilder checks that the zero Builder is usable: AddEdge supplies
// the pin arena's leading offset.
func TestZeroBuilder(t *testing.T) {
	var b Builder
	b.AddVertices(3, 1)
	b.AddEdge(2, 2, 0, 2)
	h := b.MustBuild()
	if h.NumEdges() != 1 || !slices.Equal(h.Pins(0), []int32{0, 2}) || h.EdgeWeight(0) != 2 {
		t.Fatalf("zero Builder built %d edges, pins %v", h.NumEdges(), h.Pins(0))
	}
}
