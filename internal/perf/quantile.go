package perf

import (
	"math"
	"sort"
	"sync"
)

// Percentile returns the q-quantile (q in [0,1]) of an ascending-sorted
// sample using linear interpolation between closest ranks — the same
// estimator for every consumer (hgbench reports, hgserved /metrics), so a
// "p99 ns/move" means one thing across the repository. An empty sample
// returns NaN.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Sampler is a bounded, concurrency-safe window of float64 observations —
// the live-serving counterpart of the benchmark runner's fixed-rep samples.
// It keeps the most recent capacity observations in a ring, so quantiles
// reflect current behavior rather than the whole process lifetime, and its
// memory is fixed no matter how long the daemon runs.
type Sampler struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	count int64
}

// NewSampler returns a sampler holding the most recent capacity
// observations; capacity < 1 is treated as 1.
func NewSampler(capacity int) *Sampler {
	if capacity < 1 {
		capacity = 1
	}
	return &Sampler{buf: make([]float64, 0, capacity)}
}

// Observe records one observation.
func (s *Sampler) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, v)
		return
	}
	s.buf[s.next] = v
	s.next = (s.next + 1) % cap(s.buf)
}

// Count returns the total number of observations ever recorded (not just
// those still in the window).
func (s *Sampler) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Quantiles returns the requested quantiles of the current window, in the
// order asked. With no observations every entry is NaN.
func (s *Sampler) Quantiles(qs ...float64) []float64 {
	s.mu.Lock()
	window := make([]float64, len(s.buf))
	copy(window, s.buf)
	s.mu.Unlock()
	sort.Float64s(window)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Percentile(window, q)
	}
	return out
}
