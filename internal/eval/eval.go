// Package eval implements the experimental-evaluation and reporting
// machinery the paper advocates in §3.2:
//
//   - multistart runs with min/average statistics (the traditional style);
//   - best-so-far (BSF) curves — expected best solution cost versus CPU
//     budget (Barr et al.);
//   - non-dominated (cost, runtime) frontiers — the Pareto set of
//     performance points across heuristics;
//   - speed-dependent ranking diagrams (Schreiber & Martin) showing which
//     heuristic dominates in each (instance size, CPU budget) region.
//
// Runtime is reported both in wall-clock seconds and in deterministic FM
// work units; a calibration constant converts work units to "normalized
// seconds" the way the paper normalizes all machines to a 200MHz Sun
// Ultra-2.
package eval

import (
	"context"
	"time"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// WorkUnitsPerSecond calibrates the deterministic work counter to the
// paper's reference machine: we declare 2e6 gain-update pin visits per
// normalized CPU second, roughly what a 200MHz Sun Ultra-2 sustained on
// pointer-chasing FM inner loops. All "normalized seconds" in tables derive
// from this constant, so results are machine-independent and reproducible.
const WorkUnitsPerSecond = 2e6

// Outcome is the result of one heuristic start.
type Outcome struct {
	// P is the resulting partition (may be nil for aggregated outcomes).
	P *partition.P
	// Cut is the weighted cut achieved.
	Cut int64
	// Seconds is the wall-clock time of the start.
	Seconds float64
	// Work is the deterministic FM work-unit count.
	Work int64
}

// NormalizedSeconds converts the outcome's work units to normalized seconds.
func (o Outcome) NormalizedSeconds() float64 { return float64(o.Work) / WorkUnitsPerSecond }

// Heuristic is anything that can produce one independent partitioning start.
type Heuristic interface {
	// Name identifies the heuristic in reports.
	Name() string
	// Run performs one independent start using randomness from r.
	Run(r *rng.RNG) Outcome
	// PolishBest optionally improves the best-of-k solution (hMetis-style
	// V-cycling applies only to the best of several starts, which is why —
	// as the paper notes — sampling methods cannot model such heuristics and
	// actual CPU time must be the axis of comparison). Implementations with
	// no polish step return a zero Outcome with P == nil.
	PolishBest(p *partition.P, r *rng.RNG) Outcome
}

// Flat is a single-level FM/CLIP heuristic: random balanced initial
// solution followed by the configured engine.
type Flat struct {
	Label string
	H     *hypergraph.Hypergraph
	Cfg   core.Config
	Bal   partition.Balance

	eng *core.Engine
}

// NewFlat builds a flat heuristic.
func NewFlat(label string, h *hypergraph.Hypergraph, cfg core.Config, bal partition.Balance, r *rng.RNG) *Flat {
	return &Flat{Label: label, H: h, Cfg: cfg, Bal: bal, eng: core.NewEngine(h, cfg, bal, r)}
}

// Name implements Heuristic.
func (f *Flat) Name() string { return f.Label }

// Run implements Heuristic.
func (f *Flat) Run(r *rng.RNG) Outcome {
	t0 := time.Now() //hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	p := partition.New(f.H)
	p.RandomBalanced(r, f.Bal)
	res := f.eng.Run(p)
	//hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	return Outcome{P: p, Cut: res.Cut, Seconds: time.Since(t0).Seconds(), Work: res.Work}
}

// PolishBest implements Heuristic; flat FM has no polish step.
func (f *Flat) PolishBest(*partition.P, *rng.RNG) Outcome { return Outcome{} }

// ML is a multilevel heuristic with optional V-cycles on the best solution.
type ML struct {
	Label   string
	P       *multilevel.Partitioner
	VCycles int
}

// NewML builds a multilevel heuristic. vcycles V-cycles are applied to the
// best of a multistart (0 disables polishing).
func NewML(label string, h *hypergraph.Hypergraph, cfg multilevel.Config, bal partition.Balance, vcycles int) *ML {
	return &ML{Label: label, P: multilevel.New(h, cfg, bal), VCycles: vcycles}
}

// Name implements Heuristic.
func (m *ML) Name() string { return m.Label }

// Run implements Heuristic.
func (m *ML) Run(r *rng.RNG) Outcome {
	t0 := time.Now() //hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	p, st := m.P.Partition(r)
	//hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	return Outcome{P: p, Cut: st.Cut, Seconds: time.Since(t0).Seconds(), Work: st.Work}
}

// PolishBest implements Heuristic: applies the configured V-cycles.
func (m *ML) PolishBest(p *partition.P, r *rng.RNG) Outcome {
	if m.VCycles <= 0 || p == nil {
		return Outcome{}
	}
	t0 := time.Now() //hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	var work int64
	var cut int64 = p.Cut()
	for i := 0; i < m.VCycles; i++ {
		st := m.P.VCycle(p, r)
		work += st.Work
		cut = st.Cut
	}
	//hglint:ignore detrand wall clock feeds the reported Seconds only, never the search
	return Outcome{P: p, Cut: cut, Seconds: time.Since(t0).Seconds(), Work: work}
}

// BestOfK runs k starts, applies the heuristic's polish step to the best,
// and returns the final best outcome plus the total cost of the whole
// configuration (sum of all starts plus polish) — the quantity Tables 4/5
// report as "average CPU time" per configuration. The starts are
// Multistart's, seeded from r; the polish draws its generator from r after
// them.
func BestOfK(h Heuristic, k int, r *rng.RNG) (best Outcome, totalSeconds float64, totalWork int64) {
	rep := Multistart(context.Background(), h, k, r, nil)
	best = polished(h, rep, rep.Best, r.Split())
	return best, best.Seconds, best.Work
}

// ConfigurationPoint is one cell of a Table 4/5-style evaluation: a number
// of starts, the average best cut over repetitions, and the average total
// cost of the configuration.
type ConfigurationPoint struct {
	Starts            int
	AvgBestCut        float64
	AvgSeconds        float64
	AvgNormalizedSecs float64
	// Cuts holds the per-repetition best cuts, for distribution reporting.
	Cuts []float64
}

// EvaluateConfigurationsCtx reproduces the Tables 4/5 protocol: for each
// entry of startCounts, run the best-of-k configuration reps times and
// average the best cut and total CPU time. The sweep stops between
// repetitions when ctx is cancelled, returning the fully evaluated
// configurations so far plus an incomplete flag. Partially evaluated
// configurations are dropped — an average over fewer repetitions than
// requested is not comparable to its neighbors. The per-repetition
// generator splits happen in the same order whether or not ctx is
// cancelled, so every configuration a cancelled sweep returns is
// byte-identical to the same configuration of a full sweep.
func EvaluateConfigurationsCtx(ctx context.Context, h Heuristic, startCounts []int, reps int, r *rng.RNG) (points []ConfigurationPoint, incomplete bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	points = make([]ConfigurationPoint, 0, len(startCounts))
	for _, k := range startCounts {
		cp := ConfigurationPoint{Starts: k, Cuts: make([]float64, 0, reps)}
		for rep := 0; rep < reps; rep++ {
			select {
			case <-ctx.Done():
				return points, true
			default:
			}
			best, secs, work := BestOfK(h, k, r.Split())
			cp.AvgBestCut += float64(best.Cut)
			cp.AvgSeconds += secs
			cp.AvgNormalizedSecs += float64(work) / WorkUnitsPerSecond
			cp.Cuts = append(cp.Cuts, float64(best.Cut))
		}
		cp.AvgBestCut /= float64(reps)
		cp.AvgSeconds /= float64(reps)
		cp.AvgNormalizedSecs /= float64(reps)
		points = append(points, cp)
	}
	return points, false
}
