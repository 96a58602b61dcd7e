// Package rent estimates the Rent exponent of a netlist by recursive
// min-cut bisection — the classic empirical measure of interconnect
// locality (Landman & Russo). Rent's rule T = t * G^p relates the number of
// external connections T of a block to its gate count G; real VLSI designs
// exhibit p in roughly [0.5, 0.75], while structureless random graphs push
// p toward 1.
//
// The paper's §2.1 argues that experiments must run on instances whose
// structure reflects the driving application. This package quantifies that
// structure: the test suite checks that internal/gen's synthetic ISPD98
// stand-ins land in the realistic exponent band, and cmd/hgstats reports
// the estimate for any input netlist.
package rent

import (
	"fmt"
	"math"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Options controls the estimation.
type Options struct {
	// MinBlock stops the recursion once blocks are at most this many cells
	// (default 24).
	MinBlock int
	// Tolerance is the per-bisection balance tolerance (default 0.15 —
	// loose, since the goal is structure measurement, not quality).
	Tolerance float64
	// Seed drives the bisection randomness (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MinBlock <= 0 {
		o.MinBlock = 24
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.15
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Sample is one (block size, external connections) observation.
type Sample struct {
	Cells     int
	Terminals int
}

// Estimate reports the fitted Rent parameters.
type Estimate struct {
	// P is the Rent exponent (slope of log T over log G).
	P float64
	// T0 is the Rent coefficient t (average terminals of a single cell).
	T0 float64
	// Samples are the observations the fit used.
	Samples []Sample
	// R2 is the coefficient of determination of the log-log fit.
	R2 float64
}

// Analyze estimates the Rent exponent of h.
func Analyze(h *hypergraph.Hypergraph, opt Options) (Estimate, error) {
	opt = opt.withDefaults()
	n := h.NumVertices()
	if n < opt.MinBlock*2 {
		return Estimate{}, fmt.Errorf("rent: instance too small (%d cells, need >= %d)", n, opt.MinBlock*2)
	}
	r := rng.New(opt.Seed ^ 0x9e37_0b5e)

	var samples []Sample
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	// The whole design is one observation only if it has external pins —
	// it does not, so start sampling at the first split.
	walk := hypergraph.NewRegionWalk(h)
	var recurse func(cells []int32)
	recurse = func(cells []int32) {
		samples = append(samples, Sample{Cells: len(cells), Terminals: externalNets(walk, cells)})
		if len(cells) <= opt.MinBlock {
			return
		}
		left, right := bisectBlock(walk, cells, opt, r)
		if len(left) == 0 || len(right) == 0 {
			return
		}
		recurse(left)
		recurse(right)
	}
	left, right := bisectBlock(walk, all, opt, r)
	recurse(left)
	recurse(right)

	return fit(samples)
}

// externalNets counts nets with pins both inside and outside the block.
func externalNets(walk *hypergraph.RegionWalk, cells []int32) int {
	count := 0
	walk.Walk(cells, func(_ int32, _, out []int32) {
		if len(out) > 0 {
			count++
		}
	})
	return count
}

// bisectBlock splits a block with tuned flat FM on the induced
// sub-hypergraph (external pins dropped — Rent estimation conventionally
// uses intrinsic partitioning).
func bisectBlock(walk *hypergraph.RegionWalk, cells []int32, opt Options, r *rng.RNG) (left, right []int32) {
	b := hypergraph.NewBuilder(len(cells), len(cells))
	b.Name = "rent-block"
	b.AddVertices(len(cells), 1) // unit weights: Rent counts cells, not area
	walk.Walk(cells, func(_ int32, in, _ []int32) {
		if len(in) >= 2 {
			b.AddEdge(1, in...)
		}
	})
	sub := b.MustBuild()
	bal := partition.NewBalance(sub.TotalVertexWeight(), opt.Tolerance)
	p := partition.New(sub)
	p.RandomBalanced(r.Split(), bal)
	eng := core.NewEngine(sub, core.StrongConfig(false), bal, r.Split())
	eng.Run(p)
	for i, v := range cells {
		if p.Side(int32(i)) == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}

// fit performs least squares on log T = log t + p log G, ignoring
// observations with zero terminals (log undefined; blocks fully internal).
func fit(samples []Sample) (Estimate, error) {
	var xs, ys []float64
	for _, s := range samples {
		if s.Terminals <= 0 || s.Cells <= 1 {
			continue
		}
		xs = append(xs, math.Log(float64(s.Cells)))
		ys = append(ys, math.Log(float64(s.Terminals)))
	}
	if len(xs) < 3 {
		return Estimate{}, fmt.Errorf("rent: only %d usable observations", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return Estimate{}, fmt.Errorf("rent: degenerate observations (all blocks equal size)")
	}
	p := (n*sxy - sx*sy) / denom
	intercept := (sy - p*sx) / n

	// R^2 of the fit.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + p*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Estimate{P: p, T0: math.Exp(intercept), Samples: samples, R2: r2}, nil
}
