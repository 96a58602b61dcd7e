// Package portfolio implements the adaptive portfolio scheduler: a
// deterministic feature→bucket→race→commit pipeline over the existing engine
// configurations.
//
// The paper's core empirical finding is that configuration choice (LIFO vs
// CLIP, tie-breaking, corking) dominates partitioner quality and is strongly
// instance-dependent, and that rankings must be reported as speed-dependent.
// Rather than a learned black box, the scheduler races a small curated
// portfolio of configurations for the first slice of a request's budget and
// commits the remainder to the winning arm. Every step — feature extraction,
// bucketing, the race, winner selection, the commit — is a pure function of
// (instance, seed, budget), so portfolio mode preserves the repo's
// byte-identical-output contract (DESIGN.md §15).
package portfolio

import (
	"fmt"
	"sort"

	"hgpart/internal/hypergraph"
)

// Features is the cheap, deterministic instance-feature vector the scheduler
// buckets on. It mirrors the structural statistics internal/gen profiles
// target (vertex/net counts, net-size distribution, pin/vertex ratio, area
// skew, macro count) so generated and parsed instances land in comparable
// buckets. Extraction is O(pins) with no randomness and no wall clock.
type Features struct {
	// Vertices, Nets and Pins are the raw instance dimensions.
	Vertices int `json:"vertices"`
	Nets     int `json:"nets"`
	Pins     int `json:"pins"`
	// PinVertexRatio is Pins/Vertices — the paper's primary density measure.
	PinVertexRatio float64 `json:"pin_vertex_ratio"`
	// AvgNetSize is Pins/Nets.
	AvgNetSize float64 `json:"avg_net_size"`
	// NetSizeQ50/Q90/Q99 are nearest-rank quantiles of the net-size
	// distribution; MaxNetSize is its maximum.
	NetSizeQ50 int `json:"net_size_q50"`
	NetSizeQ90 int `json:"net_size_q90"`
	NetSizeQ99 int `json:"net_size_q99"`
	MaxNetSize int `json:"max_net_size"`
	// LargeNets counts nets spanning more than Vertices/100 pins — the same
	// "global net" notion hypergraph.Stats reports.
	LargeNets int `json:"large_nets"`
	// WeightSkew is MaxVertexWeight over the mean vertex weight (1.0 for
	// unit-area instances); MacroVertices counts vertices heavier than 4x
	// the mean (the gen profiles' macro blocks).
	WeightSkew    float64 `json:"weight_skew"`
	MacroVertices int     `json:"macro_vertices"`
	// UnitArea reports that every vertex has the same weight.
	UnitArea bool `json:"unit_area"`
}

// Extract computes the feature vector for h. It is deterministic: same
// hypergraph, same bytes out.
func Extract(h *hypergraph.Hypergraph) Features {
	f := Features{
		Vertices:   h.NumVertices(),
		Nets:       h.NumEdges(),
		Pins:       h.NumPins(),
		MaxNetSize: h.MaxEdgeSize(),
	}
	if f.Vertices > 0 {
		f.PinVertexRatio = float64(f.Pins) / float64(f.Vertices)
	}
	if f.Nets > 0 {
		f.AvgNetSize = float64(f.Pins) / float64(f.Nets)
	}

	sizes := make([]int, f.Nets)
	largeAt := f.Vertices / 100
	for e := 0; e < f.Nets; e++ {
		s := h.EdgeSize(int32(e))
		sizes[e] = s
		if s > largeAt {
			f.LargeNets++
		}
	}
	sort.Ints(sizes)
	f.NetSizeQ50 = quantile(sizes, 50)
	f.NetSizeQ90 = quantile(sizes, 90)
	f.NetSizeQ99 = quantile(sizes, 99)

	if f.Vertices > 0 {
		mean := float64(h.TotalVertexWeight()) / float64(f.Vertices)
		f.WeightSkew = float64(h.MaxVertexWeight()) / mean
		macroAt := int64(4 * mean)
		f.UnitArea = true
		w0 := h.VertexWeight(0)
		for v := 0; v < f.Vertices; v++ {
			w := h.VertexWeight(int32(v))
			if w != w0 {
				f.UnitArea = false
			}
			if w > macroAt {
				f.MacroVertices++
			}
		}
	}
	return f
}

// quantile returns the nearest-rank pct-th percentile of the ascending
// sizes slice (0 for an empty slice).
func quantile(sizes []int, pct int) int {
	if len(sizes) == 0 {
		return 0
	}
	idx := (len(sizes) - 1) * pct / 100
	return sizes[idx]
}

// Bucket is a cell of the small discrete feature grid that race outcomes
// are aggregated over (the hgserved_portfolio_arm_wins_total labels). The
// grid is deliberately coarse — a handful of classes per axis — so that
// per-bucket statistics accumulate quickly across requests and stay
// inspectable by hand.
type Bucket struct {
	// SizeClass classifies vertex count: 0 (<2e3), 1 (<2e4), 2 (<2e5), 3.
	SizeClass int `json:"size_class"`
	// NetClass classifies average net size: 0 (<3.4), 1 (<4.2), 2 (>=4.2) —
	// boundaries chosen to split the IBM/MCNC profile suite roughly in
	// thirds.
	NetClass int `json:"net_class"`
	// SkewClass classifies vertex-area skew: 0 (near-unit), 1 (moderate),
	// 2 (macro-dominated, skew >= 8).
	SkewClass int `json:"skew_class"`
	// GlobalClass is 1 when the instance has any large ("global") nets.
	GlobalClass int `json:"global_class"`
}

// BucketOf maps a feature vector onto the grid.
func BucketOf(f Features) Bucket {
	var b Bucket
	switch {
	case f.Vertices < 2_000:
		b.SizeClass = 0
	case f.Vertices < 20_000:
		b.SizeClass = 1
	case f.Vertices < 200_000:
		b.SizeClass = 2
	default:
		b.SizeClass = 3
	}
	switch {
	case f.AvgNetSize < 3.4:
		b.NetClass = 0
	case f.AvgNetSize < 4.2:
		b.NetClass = 1
	default:
		b.NetClass = 2
	}
	switch {
	case f.WeightSkew < 1.5:
		b.SkewClass = 0
	case f.WeightSkew < 8:
		b.SkewClass = 1
	default:
		b.SkewClass = 2
	}
	if f.LargeNets > 0 {
		b.GlobalClass = 1
	}
	return b
}

// Key renders the bucket as a compact stable string ("s1.n0.k2.g1") used as
// the store's grouping key and the Prometheus bucket label.
func (b Bucket) Key() string {
	return fmt.Sprintf("s%d.n%d.k%d.g%d", b.SizeClass, b.NetClass, b.SkewClass, b.GlobalClass)
}
