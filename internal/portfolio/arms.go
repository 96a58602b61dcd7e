package portfolio

import (
	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Arm is one portfolio member: a named engine configuration the scheduler
// can race and commit to. Arms are value types; the curated portfolio is a
// fixed, ordered list so that arm indices (and therefore winner selection
// tie-breaks) are stable across builds.
type Arm struct {
	// Name identifies the arm in traces and metrics.
	Name string
	// Multilevel selects the ML engine; VCycles is its polish depth.
	Multilevel bool
	VCycles    int
	// Config is the flat engine configuration (also the ML refinement
	// configuration when Multilevel is set).
	Config core.Config
}

// NewHeuristic instantiates the arm's engine for h under bal. r feeds only
// construction-time randomness (flat engines take a generator for
// RandomOrder insertion); per-start randomness flows through Heuristic.Run.
func (a Arm) NewHeuristic(h *hypergraph.Hypergraph, bal partition.Balance, r *rng.RNG) eval.Heuristic {
	if a.Multilevel {
		return eval.NewML(a.Name, h, multilevel.Config{Refine: a.Config}, bal, a.VCycles)
	}
	return eval.NewFlat(a.Name, h, a.Config, bal, r)
}

// Factory adapts the arm to the eval.RunMultistart factory contract with a
// fixed construction seed, so the commit phase reuses the harness's
// retry/checkpoint machinery unchanged.
func (a Arm) Factory(h *hypergraph.Hypergraph, bal partition.Balance, seed uint64) func() eval.Heuristic {
	return func() eval.Heuristic { return a.NewHeuristic(h, bal, rng.New(seed)) }
}

// DefaultArms is the curated portfolio. It spans the paper's four decisive
// axes — LIFO vs CLIP, corking on/off, tie-breaking, and multilevel on/off —
// with one representative per axis rather than the full cross product, so a
// race stays a small fraction of a request's budget:
//
//	ml-strong       multilevel + strong flat refinement, 1 V-cycle — the
//	                fixed default hgserved runs today, kept as arm 0.
//	flat-lifo       strong single-level FM (LIFO, nonzero-only updates,
//	                toward-bias, most-balanced ties, corking guard).
//	clip-guarded    strong CLIP with the corking guard — the paper's best
//	                flat configuration on most instances.
//	clip-unguarded  the same CLIP arm with the corking guard off — wins on
//	                instances where corking rarely bites and the guard's
//	                bookkeeping is pure overhead.
//	flat-firstbest  strong flat FM breaking gain ties first-best instead of
//	                most-balanced — the tie-break axis.
//	flat-alldelta   strong flat FM with all-delta gain updates — the
//	                update-rule axis.
func DefaultArms() []Arm {
	clipNoGuard := core.StrongConfig(true)
	clipNoGuard.CorkGuard = false
	firstBest := core.StrongConfig(false)
	firstBest.BestTie = core.FirstBest
	allDelta := core.StrongConfig(false)
	allDelta.Update = core.AllDeltaGain
	return []Arm{
		{Name: "ml-strong", Multilevel: true, VCycles: 1, Config: core.StrongConfig(false)},
		{Name: "flat-lifo", Config: core.StrongConfig(false)},
		{Name: "clip-guarded", Config: core.StrongConfig(true)},
		{Name: "clip-unguarded", Config: clipNoGuard},
		{Name: "flat-firstbest", Config: firstBest},
		{Name: "flat-alldelta", Config: allDelta},
	}
}
