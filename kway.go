package hgpart

import (
	"hgpart/internal/kway"
	"hgpart/internal/objective"
)

// K-way partitioning and general objective evaluation, re-exported from
// internal/kway and internal/objective.

type (
	// KWayConfig controls recursive-bisection k-way partitioning.
	KWayConfig = kway.Config
	// KWayResult reports a k-way partitioning.
	KWayResult = kway.Result
	// Assignment is a k-way partition: part index per vertex.
	Assignment = objective.Assignment
)

// PartitionKWay splits h into k parts by recursive min-cut bisection,
// using the dummy-vertex trick for non-power-of-two k.
func PartitionKWay(h *Hypergraph, k int, cfg KWayConfig, r *RNG) (KWayResult, error) {
	return kway.Partition(h, k, cfg, r)
}

// CutSize returns the weighted number of nets spanning more than one part.
func CutSize(h *Hypergraph, a Assignment) int64 { return objective.CutSize(h, a) }

// ConnectivityMinusOne returns sum over nets of w(e)*(lambda(e)-1).
func ConnectivityMinusOne(h *Hypergraph, a Assignment) int64 {
	return objective.ConnectivityMinusOne(h, a)
}

// SumOfExternalDegrees returns the SOED objective over cut nets.
func SumOfExternalDegrees(h *Hypergraph, a Assignment) int64 {
	return objective.SumOfExternalDegrees(h, a)
}

// ScaledCost returns the Chan-Schlag-Zien scaled cost of a k-way assignment.
func ScaledCost(h *Hypergraph, a Assignment, k int) float64 {
	return objective.ScaledCost(h, a, k)
}

// Absorption returns the Sun-Sechen absorption metric (higher is better).
func Absorption(h *Hypergraph, a Assignment, k int) float64 {
	return objective.Absorption(h, a, k)
}
