package hgpart

import (
	"io"

	"hgpart/internal/exact"
	"hgpart/internal/netlist"
	"hgpart/internal/partition"
	"hgpart/internal/rent"
	"hgpart/internal/spectral"
	"hgpart/internal/trace"
)

// Baseline comparators and instrumentation, re-exported from
// internal/exact, internal/spectral and internal/trace.

type (
	// ExactOptions bounds the branch-and-bound optimal bisector.
	ExactOptions = exact.Options
	// ExactResult is a proven-optimal bisection.
	ExactResult = exact.Result
	// SpectralOptions controls the spectral eigensolver and rounding.
	SpectralOptions = spectral.Options
	// SpectralResult reports a spectral bisection.
	SpectralResult = spectral.Result
	// TraceRecorder records per-pass FM traces (implements the
	// engine Tracer).
	TraceRecorder = trace.Recorder
	// TraceSummary aggregates a recorded run.
	TraceSummary = trace.Summary
	// BookshelfDesign is a parsed Bookshelf .nodes/.nets pair.
	BookshelfDesign = netlist.BookshelfDesign
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

// ParsePaToH reads a PaToH-format hypergraph.
func ParsePaToH(r io.Reader, name string) (*Hypergraph, error) { return netlist.ParsePaToH(r, name) }

// WritePaToH writes h in PaToH format (net and cell weights).
func WritePaToH(w io.Writer, h *Hypergraph) error { return netlist.WritePaToH(w, h) }

// ParseBookshelf reads a UCLA Bookshelf .nodes/.nets pair.
func ParseBookshelf(nodesR, netsR io.Reader, name string) (*BookshelfDesign, error) {
	return netlist.ParseBookshelf(nodesR, netsR, name)
}

// WriteBookshelf writes h as a Bookshelf .nodes/.nets pair; terminal may be
// nil.
func WriteBookshelf(nodesW, netsW io.Writer, h *Hypergraph, terminal []bool) error {
	return netlist.WriteBookshelf(nodesW, netsW, h, terminal)
}

// WriteBookshelfPl writes a Bookshelf .pl placement file for unit-square
// coordinates (e.g. a Placement's X/Y), scaled by the given factor.
func WriteBookshelfPl(w io.Writer, x, y []float64, scale float64) error {
	return netlist.WriteBookshelfPl(w, x, y, scale)
}

// SpectralBisectRatioCut computes the Wei-Cheng ratio-cut spectral split
// (no hard balance constraint) and returns the partition, result and the
// achieved ratio-cut value.
func SpectralBisectRatioCut(h *Hypergraph, opt SpectralOptions) (*Partition, SpectralResult, float64, error) {
	return spectral.BisectRatioCut(h, opt)
}

// NewBalanceBounds builds a Balance directly from absolute bounds; useful
// with ExactBisect in tests and tools.
func NewBalanceBounds(lo, hi int64) Balance { return partition.Balance{Lo: lo, Hi: hi} }

// RentOptions controls Rent-exponent estimation.
type RentOptions = rent.Options

// RentEstimate is a fitted Rent's-rule model.
type RentEstimate = rent.Estimate

// RentAnalyze estimates the Rent exponent of h by recursive bisection —
// the §2.1 instance-structure diagnostic (real designs sit near p in
// [0.5, 0.75]; structureless graphs push toward 1).
func RentAnalyze(h *Hypergraph, opt RentOptions) (RentEstimate, error) {
	return rent.Analyze(h, opt)
}
