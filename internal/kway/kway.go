// Package kway provides k-way hypergraph partitioning by recursive
// bisection — the approach the paper's driving application (top-down
// placement) uses, built from the same 2-way engines the paper studies.
// (The paper restricts its own experiments to FM-based 2-way partitioners
// and names multi-way partitioning as an open gap; recursive bisection is
// the standard bridge.)
//
// Unequal subdivisions (k not a power of two) use the classic dummy-vertex
// trick: to split a region's k parts into k1 and k2 (k1 >= k2), a
// zero-connectivity vertex of weight total*(k1-k2)/k is fixed to the k2
// side, so an ordinary symmetric bisection of the augmented instance yields
// real-weight shares k1/k and k2/k.
package kway

import (
	"context"
	"fmt"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/kwayfm"
	"hgpart/internal/multilevel"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Config controls the recursive bisection.
type Config struct {
	// Tolerance is the balance tolerance applied at every bisection.
	// Default 0.05.
	Tolerance float64
	// Refine configures the FM engine. Zero value gets core.StrongConfig.
	Refine core.Config
	// DisableML forces flat FM at every level; by default sub-instances
	// larger than MLThreshold use the multilevel engine.
	DisableML bool
	// MLThreshold is the sub-instance size above which ML is used.
	// Default 1000.
	MLThreshold int
	// Starts is the number of independent starts per bisection (best kept).
	// Default 1.
	Starts int
	// DirectRefine runs a Sanchis-style direct k-way FM refinement pass
	// (internal/kwayfm) over the recursive-bisection result, optimizing the
	// cut across all k parts at once — moves recursive bisection cannot see.
	DirectRefine bool
	// RefineThreads > 0 selects the synchronous-round parallel k-way
	// refiner (kwayfm.ParEngine) for the DirectRefine polish with that
	// many evaluation threads. The refined partition is byte-identical
	// for every positive value — 1 thread and 8 threads produce the same
	// bytes — but differs from the sequential (RefineThreads == 0)
	// trajectory, which remains the default.
	RefineThreads int
}

func (c Config) withDefaults() Config {
	if c.Tolerance <= 0 {
		c.Tolerance = 0.05
	}
	if c.Refine == (core.Config{}) {
		c.Refine = core.StrongConfig(false)
	}
	if c.MLThreshold <= 0 {
		c.MLThreshold = 1000
	}
	if c.Starts <= 0 {
		c.Starts = 1
	}
	return c
}

// Result reports a k-way partitioning.
type Result struct {
	Parts objective.Assignment
	K     int
	// CutNets is the weighted number of nets spanning >1 part.
	CutNets int64
	// ConnectivityMinusOne is sum w(e)*(lambda-1).
	ConnectivityMinusOne int64
	// Imbalance is max part weight relative to ideal, minus one.
	Imbalance float64
	// Bisections performed.
	Bisections int
}

// Partition splits h into k parts by recursive min-cut bisection.
func Partition(h *hypergraph.Hypergraph, k int, cfg Config, r *rng.RNG) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("kway: k must be >= 1, got %d", k)
	}
	if k > h.NumVertices() {
		return Result{}, fmt.Errorf("kway: k=%d exceeds vertex count %d", k, h.NumVertices())
	}
	cfg = cfg.withDefaults()

	parts := make(objective.Assignment, h.NumVertices())
	all := make([]int32, h.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	res := Result{K: k}
	bisect(hypergraph.NewRegionWalk(h), h, cfg, r, all, 0, k, parts, &res)

	if cfg.DirectRefine && k >= 2 {
		// Refinement tolerance: per-part bound equivalent to the
		// per-bisection tolerance compounded once.
		kcfg := kwayfm.Config{
			Tolerance: cfg.Tolerance * 2,
			Objective: kwayfm.CutObjective,
		}
		if cfg.RefineThreads > 0 {
			pcfg := kwayfm.ParConfig{
				Tolerance:       cfg.Tolerance * 2,
				Objective:       kwayfm.CutObjective,
				Threads:         cfg.RefineThreads,
				CheckInvariants: cfg.Refine.CheckInvariants,
			}
			if _, err := kwayfm.ParRefine(context.Background(), h, parts, k, pcfg); err != nil {
				return Result{}, err
			}
			res.Parts = parts
			res.CutNets = objective.CutSize(h, parts)
			res.ConnectivityMinusOne = objective.ConnectivityMinusOne(h, parts)
			res.Imbalance = objective.Imbalance(h, parts, k)
			return res, nil
		}
		kr := r.Split()
		if cfg.Refine.ReferenceImpl {
			// The bisection layers already honored ReferenceImpl through
			// cfg.Refine; extend it to the direct k-way polish so an
			// end-to-end reference run stays reference throughout.
			if _, err := kwayfm.RefineReference(h, parts, k, kcfg, kr); err != nil {
				return Result{}, err
			}
		} else if _, err := kwayfm.Refine(h, parts, k, kcfg, kr); err != nil {
			return Result{}, err
		}
	}

	res.Parts = parts
	res.CutNets = objective.CutSize(h, parts)
	res.ConnectivityMinusOne = objective.ConnectivityMinusOne(h, parts)
	res.Imbalance = objective.Imbalance(h, parts, k)
	return res, nil
}

// bisect assigns part ids [lo, lo+kk) to cells.
func bisect(walk *hypergraph.RegionWalk, h *hypergraph.Hypergraph, cfg Config, r *rng.RNG, cells []int32, lo, kk int, parts objective.Assignment, res *Result) {
	if kk == 1 {
		for _, v := range cells {
			parts[v] = int32(lo)
		}
		return
	}
	k1 := (kk + 1) / 2 // side 0 share
	k2 := kk - k1      // side 1 share

	left, right := splitCells(walk, h, cfg, r, cells, k1, k2)
	res.Bisections++
	bisect(walk, h, cfg, r, left, lo, k1, parts, res)
	bisect(walk, h, cfg, r, right, lo+k1, k2, parts, res)
}

// splitCells bisects the sub-hypergraph induced on cells into shares
// k1 : k2 by weight.
func splitCells(walk *hypergraph.RegionWalk, h *hypergraph.Hypergraph, cfg Config, r *rng.RNG, cells []int32, k1, k2 int) (left, right []int32) {
	b := hypergraph.NewBuilder(len(cells)+1, len(cells))
	b.Name = "kway-sub"
	var subTotal int64
	for _, v := range cells {
		b.AddVertex(h.VertexWeight(v))
		subTotal += h.VertexWeight(v)
	}
	// Dummy vertex balancing unequal shares; weight 0 when k1 == k2.
	dummy := b.AddVertex(subTotal * int64(k1-k2) / int64(k1+k2))
	walk.Walk(cells, func(e int32, in, _ []int32) {
		if len(in) >= 2 {
			b.AddEdge(h.EdgeWeight(e), in...)
		}
	})
	sub := b.MustBuild()
	fixed := partition.AllFree(sub.NumVertices())
	fixed[dummy] = 1
	return SplitCells(cells, Bisect(sub, fixed, cfg, r), k1, k2)
}

// Bisect is the terminal bisection of a region instance that recursive
// bisection and the top-down placer share: it bisects sub with the
// vertices of fixed (one entry per vertex of sub, partition.Free where
// unpinned) held on their sides, and returns the best of cfg.Starts
// starts (legal before cut). Instances with more than cfg.MLThreshold
// vertices use the multilevel engine unless cfg.DisableML; smaller ones
// use flat FM with one engine across the starts.
func Bisect(sub *hypergraph.Hypergraph, fixed []int8, cfg Config, r *rng.RNG) *partition.P {
	cfg = cfg.withDefaults()
	bal := partition.NewBalance(sub.TotalVertexWeight(), cfg.Tolerance)
	var start func(r *rng.RNG) *partition.P
	if !cfg.DisableML && sub.NumVertices() > cfg.MLThreshold {
		ml := multilevel.New(sub, multilevel.Config{Refine: cfg.Refine}, bal)
		start = func(r *rng.RNG) *partition.P {
			p, _ := ml.PartitionFixed(fixed, r)
			return p
		}
	} else {
		eng := core.NewEngine(sub, cfg.Refine, bal, r.Split())
		start = func(r *rng.RNG) *partition.P {
			p := partition.NewFixed(sub, fixed)
			p.RandomBalanced(r, bal)
			eng.Run(p)
			return p
		}
	}
	var best *partition.P
	for s := 0; s < cfg.Starts; s++ {
		p := start(r.Split())
		if best == nil || (p.Legal(bal) && (!best.Legal(bal) || p.Cut() < best.Cut())) {
			best = p
		}
	}
	return best
}

// SplitCells splits cells, the first len(cells) vertices of p's
// hypergraph in order, by their sides in p. If a side comes out empty (one
// giant macro), it splits the list by count in the share k1 : k2 instead.
func SplitCells(cells []int32, p *partition.P, k1, k2 int) (left, right []int32) {
	for i, v := range cells {
		if p.Side(int32(i)) == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		half := max(len(cells)*k1/(k1+k2), 1)
		return cells[:half], cells[half:]
	}
	return left, right
}
