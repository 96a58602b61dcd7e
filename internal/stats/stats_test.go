package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hgpart/internal/rng"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("basic fields: %+v", s)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if !almost(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev %v", s.StdDev)
	}
	if !almost(s.Median, 4.5, 1e-12) {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.StdDev != 0 || s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if Quantile(sorted, 0) != 1 || Quantile(sorted, 1) != 5 {
		t.Fatal("extremes")
	}
	if !almost(Quantile(sorted, 0.5), 3, 1e-12) {
		t.Fatal("median")
	}
	if !almost(Quantile(sorted, 0.25), 2, 1e-12) {
		t.Fatal("q1")
	}
	// Interpolation between points.
	if !almost(Quantile([]float64{0, 10}, 0.3), 3, 1e-12) {
		t.Fatal("interpolation")
	}
}

func TestMeanAndMin(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if Min([]float64{3, 1, 2}) != 1 {
		t.Fatal("Min")
	}
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	r := rng.New(1)
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64() + 0.5 // clearly shifted
	}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.01) {
		t.Fatalf("obvious shift not detected: p=%v", res.P)
	}
}

func TestMannWhitneyNullNoFalsePositive(t *testing.T) {
	r := rng.New(2)
	a := make([]float64, 80)
	b := make([]float64, 80)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 {
		t.Fatalf("identical distributions flagged: p=%v", res.P)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	a := []float64{5, 5, 5}
	b := []float64{5, 5, 5, 5}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Fatalf("tied samples should give p=1, got %v", res.P)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, err := MannWhitneyU(nil, []float64{1}); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]float64, 20)
		b := make([]float64, 25)
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64() * 1.5
		}
		ra, err1 := MannWhitneyU(a, b)
		rb, err2 := MannWhitneyU(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almost(ra.P, rb.P, 1e-9)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWilcoxonDetectsPairedShift(t *testing.T) {
	r := rng.New(3)
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		base := r.Float64()
		a[i] = base
		b[i] = base + 0.2 + 0.05*r.Float64()
	}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.01) {
		t.Fatalf("paired shift not detected: p=%v", res.P)
	}
}

func TestWilcoxonNull(t *testing.T) {
	r := rng.New(4)
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = r.Float64()
		b[i] = a[i] + (r.Float64()-0.5)*0.01 // symmetric noise
	}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 {
		t.Fatalf("null rejected: p=%v", res.P)
	}
}

func TestWilcoxonAllZeroDiffs(t *testing.T) {
	a := []float64{1, 2, 3}
	res, err := WilcoxonSignedRank(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Fatalf("identical pairs should give p=1, got %v", res.P)
	}
}

func TestWilcoxonLengthMismatch(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNormalCDF(t *testing.T) {
	if !almost(normalCDF(0), 0.5, 1e-12) {
		t.Fatal("cdf(0)")
	}
	if !almost(normalCDF(1.96), 0.975, 0.001) {
		t.Fatalf("cdf(1.96) = %v", normalCDF(1.96))
	}
	if !almost(normalCDF(-1.96), 0.025, 0.001) {
		t.Fatal("cdf(-1.96)")
	}
}

func TestPValueInUnitInterval(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + int(seed%20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.Float64()
			b[i] = r.Float64() * 2
		}
		u, err1 := MannWhitneyU(a, b)
		w, err2 := WilcoxonSignedRank(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return u.P >= 0 && u.P <= 1 && w.P >= 0 && w.P <= 1
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// signedDiffs returns the differences 1..n, negated where neg says so: a
// paired sample whose signed ranks are exactly those values.
func signedDiffs(n int, neg ...int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
	}
	for _, r := range neg {
		a[r-1] = -a[r-1]
	}
	return a, b
}

func TestWilcoxonExactSmallSample(t *testing.T) {
	// All five differences positive: W+ = 15 is the single most extreme of
	// 2^5 sign patterns, so p = 2/32.
	a, b := signedDiffs(5)
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0.0625 || res.Statistic != 15 {
		t.Fatalf("5 of 5 positive: W+ = %v, p = %v; want 15, 0.0625", res.Statistic, res.P)
	}
	// Ties use midranks: diffs 1, 1, 2 have ranks 1.5, 1.5, 3; all positive
	// is one pattern of 8 at each extreme, so p = 2/8.
	if res, _ := WilcoxonSignedRank([]float64{1, 1, 2}, []float64{0, 0, 0}); res.P != 0.25 || res.Statistic != 6 {
		t.Fatalf("tied ranks: W+ = %v, p = %v; want 6, 0.25", res.Statistic, res.P)
	}
}

// The published two-sided alpha = 0.05 critical values: the test rejects
// when min(W+, W-) is at most the critical value, and not one above it.
func TestWilcoxonExactCriticalValues(t *testing.T) {
	cases := []struct {
		n        int
		critical []int // negative ranks summing to the critical value
		above    []int // negative ranks summing to one more
	}{
		{8, []int{1, 2}, []int{4}},
		{10, []int{8}, []int{9}},
		{20, []int{20, 19, 13}, []int{20, 19, 14}},
	}
	for _, tc := range cases {
		a, b := signedDiffs(tc.n, tc.critical...)
		at, err := WilcoxonSignedRank(a, b)
		if err != nil {
			t.Fatal(err)
		}
		a, b = signedDiffs(tc.n, tc.above...)
		above, err := WilcoxonSignedRank(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !at.Significant(0.05) || above.Significant(0.05) {
			t.Fatalf("n=%d: p at the critical value %v, one above %v; want < 0.05 and >= 0.05", tc.n, at.P, above.P)
		}
	}
}
