package perf

import (
	"math"
	"testing"
)

// The sampler's percentiles interpolate linearly between closest ranks
// (stats.Quantile), clamping q outside [0,1] to the extremes.
func TestPercentile(t *testing.T) {
	s := NewSampler(8)
	for _, v := range []float64{4, 1, 5, 3, 2} {
		s.Observe(v)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5}, {-1, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := s.Quantiles(tc.q)[0]; got != tc.want {
			t.Errorf("Quantiles(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	one := NewSampler(1)
	one.Observe(7)
	if got := one.Quantiles(0.99)[0]; got != 7 {
		t.Errorf("single sample p99 = %g, want 7", got)
	}
}

func TestSamplerWindowAndCount(t *testing.T) {
	s := NewSampler(4)
	for i := 1; i <= 10; i++ {
		s.Observe(float64(i))
	}
	if s.Count() != 10 {
		t.Fatalf("Count = %d, want 10", s.Count())
	}
	// Window holds the most recent 4 observations: 7, 8, 9, 10.
	qs := s.Quantiles(0, 0.5, 1)
	if qs[0] != 7 || qs[2] != 10 {
		t.Fatalf("window quantiles = %v, want min 7 max 10", qs)
	}
	if qs[1] != 8.5 {
		t.Fatalf("median of {7,8,9,10} = %g, want 8.5", qs[1])
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(0)
	for _, q := range s.Quantiles(0.5, 0.9) {
		if !math.IsNaN(q) {
			t.Fatal("quantiles of empty sampler should be NaN")
		}
	}
	s.Observe(3)
	s.Observe(9) // capacity clamped to 1: only the latest survives
	if got := s.Quantiles(0.5)[0]; got != 9 {
		t.Fatalf("clamped window median = %g, want 9", got)
	}
}
