package hgpart

import (
	"hgpart/internal/exact"
	"hgpart/internal/spectral"
)

// Baseline comparators, re-exported from internal/exact and
// internal/spectral.

type (
	// ExactOptions bounds the branch-and-bound optimal bisector.
	ExactOptions = exact.Options
	// ExactResult is a proven-optimal bisection.
	ExactResult = exact.Result
	// SpectralOptions controls the spectral eigensolver and rounding.
	SpectralOptions = spectral.Options
	// SpectralResult reports a spectral bisection.
	SpectralResult = spectral.Result
)

// ExactBisect returns a proven minimum-cut balanced bisection for small
// instances (branch and bound; default limit 32 vertices). It is the
// "absolute yardstick" the paper's health-check maxim calls for.
func ExactBisect(h *Hypergraph, bal Balance, opt ExactOptions) (ExactResult, error) {
	return exact.Bisect(h, bal, opt)
}

// SpectralBisect computes a spectral (Fiedler-vector sweep) bisection — an
// independent baseline from the ratio-cut literature the paper cites.
func SpectralBisect(h *Hypergraph, bal Balance, opt SpectralOptions) (*Partition, SpectralResult, error) {
	return spectral.Bisect(h, bal, opt)
}
