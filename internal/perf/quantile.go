package perf

import (
	"math"
	"sort"
	"sync"

	"hgpart/internal/stats"
)

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
// order asked, by stats.Quantile (linear interpolation between closest
// ranks), the one estimator hgbench reports and hgserved /metrics share.
// With no observations every entry is NaN.
func (s *Sampler) Quantiles(qs ...float64) []float64 {
	s.mu.Lock()
	window := make([]float64, len(s.buf))
	copy(window, s.buf)
	s.mu.Unlock()
	sort.Float64s(window)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = math.NaN()
		if len(window) > 0 {
			out[i] = stats.Quantile(window, q)
		}
	}
	return out
}
