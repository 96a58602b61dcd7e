package hypergraph

import (
	"slices"
	"testing"

	"hgpart/internal/rng"
)

// naiveRegion is the map-based walk RegionWalk replaces: nets in
// first-touch order, each with its in-region pins as local indices and its
// out-of-region pins.
func naiveRegion(h *Hypergraph, cells []int32) (edges []int32, ins, outs [][]int32) {
	local := make(map[int32]int32, len(cells))
	for i, v := range cells {
		local[v] = int32(i)
	}
	seen := make(map[int32]bool)
	for _, v := range cells {
		for _, e := range h.IncidentEdges(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			var in, out []int32
			for _, u := range h.Pins(e) {
				if lu, ok := local[u]; ok {
					in = append(in, lu)
				} else {
					out = append(out, u)
				}
			}
			edges, ins, outs = append(edges, e), append(ins, in), append(outs, out)
		}
	}
	return edges, ins, outs
}

func TestRegionWalkMatchesNaive(t *testing.T) {
	h := randomHypergraph(5, 200, 300)
	r := rng.New(5)
	w := NewRegionWalk(h)
	for trial := 0; trial < 50; trial++ {
		perm := r.Perm(h.NumVertices())
		cells := make([]int32, 1+r.Intn(h.NumVertices()))
		for i := range cells {
			cells[i] = int32(perm[i])
		}
		wantE, wantIn, wantOut := naiveRegion(h, cells)
		var gotE []int32
		var gotIn, gotOut [][]int32
		w.Walk(cells, func(e int32, in, out []int32) {
			gotE = append(gotE, e)
			gotIn = append(gotIn, slices.Clone(in))
			gotOut = append(gotOut, slices.Clone(out))
		})
		if !slices.Equal(gotE, wantE) {
			t.Fatalf("trial %d: nets %v, want %v", trial, gotE, wantE)
		}
		for i := range wantE {
			if !slices.Equal(gotIn[i], wantIn[i]) || !slices.Equal(gotOut[i], wantOut[i]) {
				t.Fatalf("trial %d net %d: in %v out %v, want in %v out %v",
					trial, wantE[i], gotIn[i], gotOut[i], wantIn[i], wantOut[i])
			}
		}
	}
}

// TestRegionWalkAllocationFree guards the cost of one walk: after the pin
// buffers have grown, walking a small region of a large hypergraph
// allocates nothing, so recursive callers pay per region pin, not per
// vertex of the whole instance.
func TestRegionWalkAllocationFree(t *testing.T) {
	h := randomHypergraph(6, 20000, 30000)
	w := NewRegionWalk(h)
	cells := []int32{3, 1000, 17, 19999, 42}
	nets := 0
	visit := func(int32, []int32, []int32) { nets++ }
	w.Walk(cells, visit)
	if allocs := testing.AllocsPerRun(20, func() { w.Walk(cells, visit) }); allocs != 0 {
		t.Fatalf("Walk allocated %.0f objects per call, want 0", allocs)
	}
	if nets == 0 {
		t.Fatal("no nets visited")
	}
}
