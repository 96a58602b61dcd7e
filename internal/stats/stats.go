// Package stats provides the descriptive and inferential statistics the
// paper's reporting methodology calls for: distribution summaries for
// multistart results, and significance tests (following Brglez's critique of
// chance effects in CAD benchmarking) for claims that one heuristic beats
// another.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds the descriptors the paper says any flexible presentation
// medium should include alongside min/average values.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64 // sample standard deviation (n-1)
	Median   float64
	Q1, Q3   float64
	Sum      float64
}

// Summarize computes a Summary of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-quantile (0<=q<=1) of sorted data using linear
// interpolation. sorted must be ascending and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// TestResult reports a two-sided hypothesis test.
type TestResult struct {
	// Statistic is the test statistic (U for Mann-Whitney, W for Wilcoxon).
	Statistic float64
	// Z is the normal-approximation z-score.
	Z float64
	// P is the two-sided p-value: exact for WilcoxonSignedRank with at most
	// ExactWilcoxonMaxN non-zero differences, the normal approximation
	// otherwise.
	P float64
}

// Significant reports whether the test rejects at level alpha.
func (t TestResult) Significant(alpha float64) bool { return t.P < alpha }

// MannWhitneyU performs the two-sided Mann-Whitney U test (a.k.a. Wilcoxon
// rank-sum) for whether samples a and b come from distributions with the
// same location — the appropriate test for comparing two heuristics'
// independent multistart cut distributions. Uses the normal approximation
// with tie correction; both samples should have at least ~8 points for the
// approximation to be reasonable.
func MannWhitneyU(a, b []float64) (TestResult, error) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return TestResult{}, errors.New("stats: MannWhitneyU needs non-empty samples")
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, x := range a {
		all = append(all, obs{x, 0})
	}
	for _, x := range b {
		all = append(all, obs{x, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks; accumulate tie correction term sum(t^3 - t).
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	u2 := float64(n1)*float64(n2) - u1
	u := math.Min(u1, u2)

	mu := float64(n1) * float64(n2) / 2
	nTot := float64(n1 + n2)
	sigma2 := float64(n1) * float64(n2) / 12 * (nTot + 1 - tieTerm/(nTot*(nTot-1)))
	if sigma2 <= 0 {
		// All observations tied: no evidence of difference.
		return TestResult{Statistic: u, Z: 0, P: 1}, nil
	}
	z := (u - mu) / math.Sqrt(sigma2)
	p := 2 * normalCDF(-math.Abs(z))
	return TestResult{Statistic: u, Z: z, P: p}, nil
}

// ExactWilcoxonMaxN is the largest number of non-zero paired differences
// for which WilcoxonSignedRank computes the exact null distribution; above
// it the normal approximation is accurate enough.
const ExactWilcoxonMaxN = 20

// WilcoxonSignedRank performs the two-sided Wilcoxon signed-rank test on
// paired samples (e.g. two heuristics run on the same instances with shared
// seeds). Zero differences are dropped, per standard practice. With at most
// ExactWilcoxonMaxN non-zero differences the p-value is exact: the null
// distribution of W+ over all 2^n equally likely sign patterns of the
// observed (mid)ranks, tied ranks included. Larger samples use the normal
// approximation with tie correction.
func WilcoxonSignedRank(a, b []float64) (TestResult, error) {
	if len(a) != len(b) {
		return TestResult{}, errors.New("stats: WilcoxonSignedRank needs equal-length samples")
	}
	type d struct {
		abs  float64
		sign float64
	}
	var ds []d
	for i := range a {
		diff := a[i] - b[i]
		if diff == 0 {
			continue
		}
		s := 1.0
		if diff < 0 {
			s = -1.0
		}
		ds = append(ds, d{math.Abs(diff), s})
	}
	n := len(ds)
	if n == 0 {
		return TestResult{Statistic: 0, Z: 0, P: 1}, nil
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].abs < ds[j].abs })
	// ranks2 holds doubled midranks, integers even when ranks tie.
	ranks2 := make([]int, n)
	var wPlus2 int
	var tieTerm float64
	for i := 0; i < n; {
		j := i
		for j < n && ds[j].abs == ds[i].abs {
			j++
		}
		for k := i; k < j; k++ {
			ranks2[k] = i + j + 1 // twice the average of 1-based ranks i+1..j
			if ds[k].sign > 0 {
				wPlus2 += ranks2[k]
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	wPlus := float64(wPlus2) / 2
	nf := float64(n)
	mu := nf * (nf + 1) / 4
	sigma2 := nf*(nf+1)*(2*nf+1)/24 - tieTerm/48
	if sigma2 <= 0 {
		return TestResult{Statistic: wPlus, Z: 0, P: 1}, nil
	}
	z := (wPlus - mu) / math.Sqrt(sigma2)
	p := 2 * normalCDF(-math.Abs(z))
	if n <= ExactWilcoxonMaxN {
		p = exactSignedRankP(ranks2, wPlus2)
	}
	return TestResult{Statistic: wPlus, Z: z, P: p}, nil
}

// exactSignedRankP is the two-sided exact p-value of an observed doubled
// W+ of w2 given the doubled ranks: twice the smaller tail probability of
// the null distribution, in which each rank carries a + sign independently
// with probability 1/2, capped at 1.
func exactSignedRankP(ranks2 []int, w2 int) float64 {
	total := 0
	for _, r := range ranks2 {
		total += r
	}
	// count[s] is the number of sign patterns whose doubled W+ is s.
	count := make([]float64, total+1)
	count[0] = 1
	hi := 0
	for _, r := range ranks2 {
		for s := hi; s >= 0; s-- {
			count[s+r] += count[s]
		}
		hi += r
	}
	var lower, upper float64
	for s, c := range count {
		if s <= w2 {
			lower += c
		}
		if s >= w2 {
			upper += c
		}
	}
	patterns := math.Ldexp(1, len(ranks2))
	return math.Min(1, 2*math.Min(lower, upper)/patterns)
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
