package hypergraph

import (
	"fmt"
	"slices"
	"strings"
)

// Stats summarizes the "salient attributes of real-world inputs" the paper
// lists in §2.1: size, sparsity, average vertex degree, average net size,
// presence of a few extremely large nets, and wide variation in vertex
// weights. cmd/hgstats prints these for any instance.
type Stats struct {
	Name     string
	Vertices int
	Edges    int
	Pins     int

	AvgDegree  float64
	MaxDegree  int
	AvgNetSize float64
	MaxNetSize int

	TotalVertexWeight int64
	MaxVertexWeight   int64
	MinVertexWeight   int64
	// WeightSkew is MaxVertexWeight / mean vertex weight; large values signal
	// macro cells, the instances on which CLIP corking manifests.
	WeightSkew float64

	// NetSizeHist counts nets by size bucket: 2, 3, 4, 5-10, 11-100, >100.
	NetSizeHist [6]int
	// LargeNets is the number of nets spanning more than 1% of all vertices
	// (clock/reset-like nets).
	LargeNets int
}

// ComputeStats derives Stats for h.
func ComputeStats(h *Hypergraph) Stats {
	s := Stats{
		Name:              h.Name,
		Vertices:          h.NumVertices(),
		Edges:             h.NumEdges(),
		Pins:              h.NumPins(),
		TotalVertexWeight: h.TotalVertexWeight(),
		MaxVertexWeight:   h.MaxVertexWeight(),
		MaxNetSize:        h.MaxEdgeSize(),
	}
	if s.Vertices > 0 {
		s.AvgDegree = float64(s.Pins) / float64(s.Vertices)
	}
	if s.Edges > 0 {
		s.AvgNetSize = float64(s.Pins) / float64(s.Edges)
	}
	s.MinVertexWeight = s.MaxVertexWeight
	for v := 0; v < s.Vertices; v++ {
		if d := h.Degree(int32(v)); d > s.MaxDegree {
			s.MaxDegree = d
		}
		if w := h.VertexWeight(int32(v)); w < s.MinVertexWeight {
			s.MinVertexWeight = w
		}
	}
	if s.Vertices > 0 && s.TotalVertexWeight > 0 {
		mean := float64(s.TotalVertexWeight) / float64(s.Vertices)
		s.WeightSkew = float64(s.MaxVertexWeight) / mean
	}
	bigThreshold := s.Vertices / 100
	for e := 0; e < s.Edges; e++ {
		sz := h.EdgeSize(int32(e))
		switch {
		case sz <= 2:
			s.NetSizeHist[0]++
		case sz == 3:
			s.NetSizeHist[1]++
		case sz == 4:
			s.NetSizeHist[2]++
		case sz <= 10:
			s.NetSizeHist[3]++
		case sz <= 100:
			s.NetSizeHist[4]++
		default:
			s.NetSizeHist[5]++
		}
		if bigThreshold > 0 && sz > bigThreshold {
			s.LargeNets++
		}
	}
	return s
}

// String renders the statistics as a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance %s\n", s.Name)
	fmt.Fprintf(&b, "  vertices %d  nets %d  pins %d\n", s.Vertices, s.Edges, s.Pins)
	fmt.Fprintf(&b, "  avg degree %.2f (max %d)  avg net size %.2f (max %d)\n",
		s.AvgDegree, s.MaxDegree, s.AvgNetSize, s.MaxNetSize)
	fmt.Fprintf(&b, "  vertex weight: total %d  min %d  max %d  skew %.1fx\n",
		s.TotalVertexWeight, s.MinVertexWeight, s.MaxVertexWeight, s.WeightSkew)
	fmt.Fprintf(&b, "  net sizes: 2:%d 3:%d 4:%d 5-10:%d 11-100:%d >100:%d  large(>1%%V):%d\n",
		s.NetSizeHist[0], s.NetSizeHist[1], s.NetSizeHist[2],
		s.NetSizeHist[3], s.NetSizeHist[4], s.NetSizeHist[5], s.LargeNets)
	return b.String()
}

// Contract builds the coarser hypergraph induced by mapping each vertex v to
// cluster clusterOf[v] in [0, numClusters). Cluster weights are the sums of
// member weights. Each net is projected onto clusters; nets reduced to a
// single cluster disappear, and parallel nets (identical projected pin sets)
// are merged with their weights summed — the standard multilevel contraction
// used by hMETIS-style partitioners.
//
// The second return value maps each coarse edge back to one representative
// fine edge (the first fine net that produced it), which is useful for
// debugging and for tests that check cut preservation.
func (h *Hypergraph) Contract(clusterOf []int32, numClusters int) (*Hypergraph, []int32) {
	if len(clusterOf) != h.NumVertices() {
		panic("hypergraph: Contract cluster map has wrong length")
	}
	coarse := &Hypergraph{Name: h.Name}
	coarse.vertexWeight = make([]int64, numClusters)
	for v, c := range clusterOf {
		if c < 0 || int(c) >= numClusters {
			panic("hypergraph: Contract cluster index out of range")
		}
		coarse.vertexWeight[c] += h.vertexWeight[v]
	}

	// Coarse nets are appended to the CSR arrays in first-appearance order.
	// Identical projected nets are found through an open-addressed table of
	// coarse net ids (power-of-two size, at most half full, linear probing)
	// keyed by a fingerprint of the sorted pin list; a fingerprint match is
	// confirmed by comparing the pin lists themselves. The fingerprint only
	// decides which candidates are compared, never the net order.
	ne := h.NumEdges()
	coarse.eptr = append(make([]int32, 0, ne+1), 0)
	coarse.edgeWeight = make([]int64, 0, ne)
	eind := make([]int32, 0, h.NumPins())
	repOf := make([]int32, 0, ne)
	fp := make([]uint64, 0, ne)
	slots := make([]int32, tableSize(ne))
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(len(slots) - 1)
	scratch := make([]int32, 0, max(64, h.MaxEdgeSize()))

	for e := 0; e < ne; e++ {
		scratch = scratch[:0]
		for _, v := range h.Pins(int32(e)) {
			scratch = append(scratch, clusterOf[v])
		}
		uniq := dedupPins(scratch)
		if len(uniq) < 2 {
			continue
		}
		hsh := fingerprint(uniq)
		i := hsh & mask
		for ; slots[i] >= 0; i = (i + 1) & mask {
			ce := slots[i]
			if fp[ce] == hsh && slices.Equal(eind[coarse.eptr[ce]:coarse.eptr[ce+1]], uniq) {
				coarse.edgeWeight[ce] += h.edgeWeight[e]
				break
			}
		}
		if slots[i] >= 0 {
			continue // merged into a parallel net
		}
		slots[i] = int32(len(coarse.edgeWeight))
		fp = append(fp, hsh)
		eind = append(eind, uniq...)
		coarse.eptr = append(coarse.eptr, int32(len(eind)))
		coarse.edgeWeight = append(coarse.edgeWeight, h.edgeWeight[e])
		repOf = append(repOf, int32(e))
	}
	// Trim the pin array, sized for the fine graph, to what it holds.
	coarse.eind = slices.Clone(eind)
	coarse.finish()
	return coarse, repOf
}

// tableSize is the smallest power of two at least twice n (and at least 2),
// the slot count that keeps Contract's table at most half full.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// fingerprint hashes a sorted pin list: FNV-1a over whole pin words, then a
// SplitMix64 finalizer so the low bits that index the table are well mixed.
func fingerprint(pins []int32) uint64 {
	var hsh uint64 = 1469598103934665603
	for _, p := range pins {
		hsh ^= uint64(uint32(p))
		hsh *= 1099511628211
	}
	hsh ^= hsh >> 30
	hsh *= 0xbf58476d1ce4e5b9
	hsh ^= hsh >> 27
	hsh *= 0x94d049bb133111eb
	hsh ^= hsh >> 31
	return hsh
}

// sortedPinsCheck reports whether each net's pins are sorted ascending; the
// Builder guarantees this and Contract relies on it for equality checks.
func (h *Hypergraph) sortedPinsCheck() bool {
	for e := 0; e < h.NumEdges(); e++ {
		pins := h.Pins(int32(e))
		for i := 1; i < len(pins); i++ {
			if pins[i] < pins[i-1] {
				return false
			}
		}
	}
	return true
}
