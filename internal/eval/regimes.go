package eval

import (
	"context"
	"math"
	"sort"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
	"hgpart/internal/stats"
)

// Multistart regimes beyond fixed start counts, per §3.2 of the paper:
//
//   - BestWithinBudget models the realistic use regime ("practical runtime
//     budgets are very tight... realistic runtime regimes support at most a
//     few starts"): keep starting until a CPU budget is exhausted.
//   - PrunedMultistart implements the early-termination regime ("pruning
//     (early termination of starts that appear unpromising relative to
//     previous starts) can be applied") for flat engines, which is one of
//     the reasons the paper insists CPU time — not the number of starts —
//     must be the axis of comparison.

// BestWithinBudget runs starts of h until the cumulative normalized CPU
// (work units / WorkUnitsPerSecond) reaches budgetNormSeconds, keeping the
// best legal outcome. At least one start always runs; a cancelled ctx (nil
// means Background) stops the sweep between starts. Returns the best
// outcome, the number of starts performed and the total normalized seconds
// actually spent.
func BestWithinBudget(ctx context.Context, h Heuristic, budgetNormSeconds float64, r *rng.RNG) (Outcome, int, float64) {
	if ctx == nil {
		ctx = context.Background()
	}
	var best Outcome
	starts := 0
	var spent float64
	for {
		o := h.Run(r.Split())
		starts++
		spent += o.NormalizedSeconds()
		if best.P == nil || o.Cut < best.Cut {
			best = o
		}
		if spent >= budgetNormSeconds || ctx.Err() != nil {
			break
		}
	}
	polish := h.PolishBest(best.P, r.Split())
	if polish.P != nil {
		spent += float64(polish.Work) / WorkUnitsPerSecond
		best.Cut = polish.Cut
	}
	return best, starts, spent
}

// PrunedMultistart runs n starts of a flat engine configuration, abandoning
// a start whose cut after `afterPass` passes exceeds pruneFactor times the
// best final cut seen so far. It returns the best outcome, the per-start
// results and how many starts were pruned. The first start always runs to
// completion (there is no reference yet). A cancelled ctx (nil means
// Background) stops the sweep between starts.
func PrunedMultistart(ctx context.Context, h *hypergraph.Hypergraph, cfg core.Config, bal partition.Balance,
	n int, afterPass int, pruneFactor float64, r *rng.RNG) (best Outcome, cuts []int64, pruned int) {
	if ctx == nil {
		ctx = context.Background()
	}
	if afterPass < 1 {
		afterPass = 1
	}
	if pruneFactor <= 1 {
		pruneFactor = 1.5
	}
	eng := core.NewEngine(h, cfg, bal, r.Split())
	bestCut := int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		p := partition.New(h)
		p.RandomBalanced(r.Split(), bal)
		var keep func(int, int64) bool
		if bestCut != int64(math.MaxInt64) {
			threshold := int64(float64(bestCut) * pruneFactor)
			keep = func(pass int, cut int64) bool {
				return pass < afterPass || cut <= threshold
			}
		}
		res := eng.RunPruned(p, keep)
		cuts = append(cuts, res.Cut)
		if res.Pruned {
			pruned++
			continue
		}
		if res.Cut < bestCut {
			bestCut = res.Cut
			best = Outcome{P: p, Cut: res.Cut, Work: res.Work}
		}
	}
	return best, cuts, pruned
}

// CutDistribution summarizes the empirical distribution of single-start
// cuts: sorted values plus selected quantiles — the "standard deviations
// and other descriptors" the paper says a flexible presentation medium
// should carry alongside min/average.
type CutDistribution struct {
	Sorted   []float64
	Mean     float64
	StdDev   float64
	Quantile map[int]float64 // keys 5, 25, 50, 75, 95
}

// NewCutDistribution builds the distribution from outcomes.
func NewCutDistribution(samples []Outcome) CutDistribution {
	d := CutDistribution{Quantile: map[int]float64{}}
	if len(samples) == 0 {
		return d
	}
	for _, s := range samples {
		d.Sorted = append(d.Sorted, float64(s.Cut))
	}
	sort.Float64s(d.Sorted)
	for _, x := range d.Sorted {
		d.Mean += x
	}
	d.Mean /= float64(len(d.Sorted))
	if len(d.Sorted) > 1 {
		var ss float64
		for _, x := range d.Sorted {
			ss += (x - d.Mean) * (x - d.Mean)
		}
		d.StdDev = math.Sqrt(ss / float64(len(d.Sorted)-1))
	}
	for _, q := range []int{5, 25, 50, 75, 95} {
		d.Quantile[q] = stats.Quantile(d.Sorted, float64(q)/100)
	}
	return d
}

// ProbBest estimates, from single-start samples, the probability that
// heuristic A's best-of-kA beats heuristic B's best-of-kB (strictly lower
// cut), where kA and kB are the start counts fitting a common budget tau.
// This is the Schreiber-Martin c_tau comparison: rank heuristics by the
// distribution of the best cost achieved in time tau. Estimation is by
// direct convolution of the empirical order-statistic distributions.
func ProbBest(a, b []Outcome, tau float64, useNormalized bool) float64 {
	ka := startsWithin(a, tau, useNormalized)
	kb := startsWithin(b, tau, useNormalized)
	if ka == 0 && kb == 0 {
		return 0.5 // neither finishes a start: tie
	}
	if ka == 0 {
		return 0
	}
	if kb == 0 {
		return 1
	}
	ca := sortedCuts(a)
	cb := sortedCuts(b)
	// P(minA < minB) = sum over distinct values v of
	// P(minA = v) * P(minB > v).
	var prob float64
	for i := range ca {
		if i > 0 && ca[i] == ca[i-1] {
			continue
		}
		pEq := probMinEquals(ca, i, ka)
		pGt := probMinGreater(cb, ca[i], kb)
		prob += pEq * pGt
	}
	return prob
}

func startsWithin(samples []Outcome, tau float64, useNormalized bool) int {
	if len(samples) == 0 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		if useNormalized {
			mean += s.NormalizedSeconds()
		} else {
			mean += s.Seconds
		}
	}
	mean /= float64(len(samples))
	if mean <= 0 {
		return 1
	}
	return int(tau / mean)
}

func sortedCuts(samples []Outcome) []float64 {
	cuts := make([]float64, len(samples))
	for i, s := range samples {
		cuts[i] = float64(s.Cut)
	}
	sort.Float64s(cuts)
	return cuts
}

// probMinEquals returns P(min of k draws == sorted[i]) where i is the first
// index of its value run.
func probMinEquals(sorted []float64, i int, k int) float64 {
	n := float64(len(sorted))
	v := sorted[i]
	// count of values >= v and > v
	ge := float64(len(sorted) - i)
	gt := 0.0
	for j := len(sorted) - 1; j >= 0; j-- {
		if sorted[j] > v {
			gt++
		} else {
			break
		}
	}
	return math.Pow(ge/n, float64(k)) - math.Pow(gt/n, float64(k))
}

// probMinGreater returns P(min of k draws > v).
func probMinGreater(sorted []float64, v float64, k int) float64 {
	n := float64(len(sorted))
	gt := 0.0
	for j := len(sorted) - 1; j >= 0; j-- {
		if sorted[j] > v {
			gt++
		} else {
			break
		}
	}
	return math.Pow(gt/n, float64(k))
}
