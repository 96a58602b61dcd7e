package hypergraph_test

import (
	"testing"

	"hgpart/internal/gen"
)

// TestContractAllocations guards Contract's allocation count on a
// full-scale ibm01-like instance: the coarse CSR arrays, the parallel-net
// table and the transpose are a fixed handful of slices, independent of
// how many nets there are. A per-net or per-bucket allocation would put
// the count in the thousands.
func TestContractAllocations(t *testing.T) {
	h := gen.MustGenerate(gen.MustIBMProfile(1))
	clusterOf := make([]int32, h.NumVertices())
	for v := range clusterOf {
		clusterOf[v] = int32(v / 2)
	}
	k := (h.NumVertices() + 1) / 2
	allocs := testing.AllocsPerRun(5, func() { h.Contract(clusterOf, k) })
	if allocs > 100 {
		t.Fatalf("Contract allocated %.0f objects per call, want at most 100", allocs)
	}
	t.Logf("Contract: %.0f allocations per call on %d vertices, %d nets", allocs, h.NumVertices(), h.NumEdges())
}
