package hgpart

import (
	"context"

	"hgpart/internal/kway"
	"hgpart/internal/kwayfm"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
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

// KWayRefineConfig controls direct (Sanchis-style) k-way FM refinement.
type KWayRefineConfig = kwayfm.Config

// K-way refinement objectives.
const (
	CutObjective          = kwayfm.CutObjective
	ConnectivityObjective = kwayfm.ConnectivityObjective
)

// RefineKWay improves an existing k-way assignment in place with direct
// k-way FM moves and returns (initial, final) objective values.
func RefineKWay(h *Hypergraph, parts Assignment, k int, cfg KWayRefineConfig, r *RNG) (initial, final int64, err error) {
	res, err := kwayfm.Refine(h, parts, k, cfg, r)
	if err != nil {
		return 0, 0, err
	}
	return res.Initial, res.Final, nil
}

type (
	// KWayParConfig controls synchronous-round parallel k-way refinement.
	KWayParConfig = kwayfm.ParConfig
	// KWayParResult reports a parallel refinement run; every field is
	// independent of the thread count.
	KWayParResult = kwayfm.ParResult
)

// ParRefineKWay improves an existing k-way assignment in place with the
// deterministic synchronous-round parallel refiner. The result is
// byte-identical for every cfg.Threads value; ctx is polled at round
// boundaries and a cancelled run still leaves parts legal.
func ParRefineKWay(ctx context.Context, h *Hypergraph, parts Assignment, k int, cfg KWayParConfig) (KWayParResult, error) {
	return kwayfm.ParRefine(ctx, h, parts, k, cfg)
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

// RatioCut returns the Wei-Cheng ratio cut of a 2-way assignment.
func RatioCut(h *Hypergraph, a Assignment) float64 { return objective.RatioCut(h, a) }

// ScaledCost returns the Chan-Schlag-Zien scaled cost of a k-way assignment.
func ScaledCost(h *Hypergraph, a Assignment, k int) float64 {
	return objective.ScaledCost(h, a, k)
}

// Absorption returns the Sun-Sechen absorption metric (higher is better).
func Absorption(h *Hypergraph, a Assignment, k int) float64 {
	return objective.Absorption(h, a, k)
}

// Imbalance returns max part weight relative to the ideal, minus one.
func Imbalance(h *Hypergraph, a Assignment, k int) float64 {
	return objective.Imbalance(h, a, k)
}

// PartWeights returns total vertex weight per part.
func PartWeights(h *Hypergraph, a Assignment, k int) []int64 {
	return objective.PartWeights(h, a, k)
}

// BisectFixed runs one multilevel start on h with the given fixed-side
// vector (entries FreeVertex, 0 or 1) as an input — the instance class §2.1
// of the paper argues real placement flows produce. It is the engine's one
// pipeline, so an all-FreeVertex vector gives exactly what an MLPartitioner
// with the same balance and seed returns from Partition.
func BisectFixed(h *Hypergraph, fixedSide []int8, tolerance float64, seed uint64) (*Partition, MLStats) {
	bal := NewBalance(h.TotalVertexWeight(), tolerance)
	ml := NewMLPartitioner(h, MLConfig{Refine: StrongFMConfig(false)}, bal)
	return ml.PartitionFixed(fixedSide, rng.New(seed))
}

// FreeVertex marks an unconstrained vertex in fixed-side vectors.
const FreeVertex = partition.Free
