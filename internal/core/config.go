// Package core implements the paper's primary contribution: a
// Fiduccia–Mattheyses testbench in which every "implicit implementation
// decision" — the underspecified features of the original 1982 FM
// description that any implementation must silently resolve — is an
// explicit, independently switchable configuration knob.
//
// The paper (Caldwell, Kahng, Kennings, Markov, DAC 1999) demonstrates that
// the spread of solution quality across combinations of these decisions far
// exceeds the improvements typically claimed for new partitioning
// heuristics. Table 1 of the paper sweeps two of the knobs across four
// engines; Tables 2 and 3 contrast naive and tuned settings.
//
// The knobs:
//
//   - Bias: tie-breaking between equal-gain head moves of the two sides
//     (Away / Part0 / Toward the partition of the last moved vertex);
//   - Update: whether a zero-delta gain update reinserts the vertex in its
//     bucket (AllDeltaGain) or is skipped (NonzeroOnly);
//   - Insertion: LIFO / FIFO / Random placement within a gain bucket;
//   - BestTie: which of several equal-cut prefixes of a pass is kept
//     (first seen, last seen, or the most balanced);
//   - CLIP: Dutt–Deng cluster-oriented iterative improvement — moves keyed
//     by cumulative delta gain, all starting in the zero bucket;
//   - CorkGuard: the paper's fix for CLIP "corking" — cells whose area
//     exceeds the balance slack are never inserted into the gain container
//     (benefits all FM variants, essentially zero overhead);
//   - LookPastIllegal: scan beyond an illegal bucket head (the paper finds
//     this too slow and harmful; provided for the ablation bench);
//   - MaxIdleMoves: end a pass a fixed number of moves past its best prefix
//     (the early exit multilevel refinement uses; off in flat FM).
package core

import "fmt"

// UpdatePolicy controls handling of zero-delta gain updates (§2.2 of the
// paper, the "All∆gain" vs "Nonzero" rows of Table 1).
type UpdatePolicy int

const (
	// AllDeltaGain reinserts a vertex into its gain bucket even when the
	// delta gain of an update is zero, shifting its position within the
	// bucket. A straightforward implementation of the FM gain update does
	// exactly this.
	AllDeltaGain UpdatePolicy = iota
	// NonzeroOnly skips the update when the delta gain is zero, leaving the
	// vertex's position unchanged. The original FM gain-update method has
	// this behaviour as a (netcut- and 2-way-specific) side effect.
	NonzeroOnly
)

func (u UpdatePolicy) String() string {
	switch u {
	case AllDeltaGain:
		return "AllDeltaGain"
	case NonzeroOnly:
		return "Nonzero"
	}
	return "Update(?)"
}

// Bias resolves ties when the head moves of both sides' highest gain
// buckets have equal gain and both are legal (§2.2, the "Bias" column of
// Table 1).
type Bias int

const (
	// Away chooses the move that is NOT from the partition of the last
	// vertex moved.
	Away Bias = iota
	// Part0 always chooses the move from partition 0.
	Part0
	// Toward chooses the move from the same partition as the last vertex
	// moved.
	Toward
)

func (b Bias) String() string {
	switch b {
	case Away:
		return "Away"
	case Part0:
		return "Part0"
	case Toward:
		return "Toward"
	}
	return "Bias(?)"
}

// BestTie selects among equal-cut best solutions seen during a pass (§2.2:
// "choose the first such solution, the last such solution, or the one that
// is furthest from violating balance constraints").
type BestTie int

const (
	// FirstBest keeps the earliest prefix achieving the best cut.
	FirstBest BestTie = iota
	// LastBest keeps the latest prefix achieving the best cut.
	LastBest
	// MostBalanced keeps, among equal-cut prefixes, the one with the
	// smallest side-area difference.
	MostBalanced
)

func (b BestTie) String() string {
	switch b {
	case FirstBest:
		return "First"
	case LastBest:
		return "Last"
	case MostBalanced:
		return "Balance"
	}
	return "BestTie(?)"
}

// InsertionOrder mirrors gain.Order without importing it into every caller.
type InsertionOrder int

const (
	LIFO InsertionOrder = iota
	FIFO
	RandomOrder
)

func (o InsertionOrder) String() string {
	switch o {
	case LIFO:
		return "LIFO"
	case FIFO:
		return "FIFO"
	case RandomOrder:
		return "Random"
	}
	return "Insertion(?)"
}

// Config fully describes an FM variant. The zero value is a plain flat
// LIFO FM with AllDeltaGain updates, Away bias and no corking guard —
// i.e. a faithful "straightforward implementation".
type Config struct {
	// CLIP selects the Dutt–Deng CLIP variant: the gain container is keyed
	// by cumulative delta gain and every movable vertex starts in the zero
	// bucket at the beginning of each pass.
	CLIP bool

	Update    UpdatePolicy
	Bias      Bias
	Insertion InsertionOrder
	BestTie   BestTie

	// CorkGuard, when set, excludes from the gain container any vertex whose
	// weight exceeds the balance slack (Balance.Hi - Balance.Lo): such a
	// vertex can never move legally while the partition is feasible, and at
	// the head of a CLIP zero bucket it "corks" the whole pass.
	CorkGuard bool

	// LookPastIllegal scans the remainder of a bucket when its head move is
	// illegal instead of skipping the side. The paper reports this is
	// time-consuming and appears harmful; kept for the ablation bench.
	LookPastIllegal bool

	// SkipBucketOnly resolves the other reading of the paper's selection
	// rule ("the entire bucket (or perhaps even every bucket for that
	// partition) is skipped"): when a bucket's head move is illegal, descend
	// to the next lower bucket's head instead of disqualifying the whole
	// side. Mutually composable with CorkGuard; ignored when
	// LookPastIllegal is set.
	SkipBucketOnly bool

	// MaxPasses caps the number of passes; 0 means iterate until a pass
	// yields no improvement.
	MaxPasses int

	// MaxIdleMoves ends a pass early: once a legal best prefix exists, the
	// pass stops as soon as more than MaxIdleMoves moves have been made
	// since that prefix, and rolls back to it as usual. Such a pass is not a
	// stuck termination. Zero or negative keeps the paper's full pass (every
	// movable vertex moves once); multilevel FM refinement defaults it to
	// 2000 (multilevel.DefaultMaxIdleMoves). A pass over at most
	// MaxIdleMoves movable vertices never stops early.
	MaxIdleMoves int

	// LookaheadDepth enables Krishnamurthy higher-order gains: values >= 2
	// break ties inside the head gain bucket by the level-2..depth gain
	// vector (lexicographically). 0 and 1 mean plain FM selection.
	LookaheadDepth int
	// LookaheadScanLimit caps how many head-bucket entries the lookahead
	// selection examines per side per move (default 32 when lookahead is
	// enabled).
	LookaheadScanLimit int

	// BoundaryOnly restricts each pass to boundary vertices (pins of cut
	// nets): only they enter the gain container at pass start, and vertices
	// are added lazily when a move cuts one of their nets. This is the
	// standard multilevel-refinement speedup — during uncoarsening the
	// projected solution is already good and interior vertices almost never
	// move. Quality on cold starts is worse; use it as the MLConfig.Refine
	// engine, not as a flat partitioner.
	BoundaryOnly bool

	// ReferenceImpl runs the frozen seed implementation of the pass loop
	// (reference.go) on the legacy gain container instead of the optimized
	// hot path. The two paths are bit-identical by construction — same move
	// sequence, cut, work count and cork trace for any seed — which the
	// differential test layer enforces; the reference path simply allocates
	// and recomputes the straightforward way. cmd/hgbench times both to
	// report the speedup; it is not a knob the paper's tables vary, so
	// Config.String() deliberately omits it (reports must be byte-identical
	// across implementations). Incompatible with LookaheadDepth >= 2 and
	// BoundaryOnly, which postdate the seed.
	ReferenceImpl bool

	// CheckInvariants enables debug mode: after every pass the engine
	// cross-checks the incremental partition state (cut, per-net side counts,
	// areas) against a from-scratch recomputation and verifies the gain
	// container's linked-list structure. A disagreement panics with an
	// *InvariantViolation, which the evaluation harness recovers into a
	// failed start — silent corruption becomes a recorded error instead of a
	// wrong number in a table. Adds O(pins) per pass; leave off in
	// production sweeps.
	CheckInvariants bool
}

// String renders the configuration compactly, e.g.
// "CLIP/Nonzero/Toward/LIFO/guarded".
func (c Config) String() string {
	engine := "FM"
	if c.CLIP {
		engine = "CLIP"
	}
	guard := "unguarded"
	if c.CorkGuard {
		guard = "guarded"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", engine, c.Update, c.Bias, c.Insertion, guard)
}

// NaiveConfig is the deliberately weak testbench standing in for the
// "Reported" rows of Tables 2 and 3: a straightforward implementation that
// resolves every implicit decision the convenient-but-poor way — zero-delta
// churn, fixed Part0 bias, no corking guard, and a single pass. Bucket
// insertion stays LIFO so the configuration remains a "LIFO FM"/"CLIP FM"
// in the paper's sense; the FIFO/Random orders are studied separately in
// the insertion-order ablation bench.
func NaiveConfig(clip bool) Config {
	return Config{
		CLIP:      clip,
		Update:    AllDeltaGain,
		Bias:      Part0,
		Insertion: LIFO,
		BestTie:   FirstBest,
		CorkGuard: false,
		MaxPasses: 1,
	}
}

// StrongConfig is the tuned testbench standing in for the paper's "Our"
// rows: LIFO insertion, Nonzero updates, Toward bias, corking guard, passes
// until convergence.
func StrongConfig(clip bool) Config {
	return Config{
		CLIP:      clip,
		Update:    NonzeroOnly,
		Bias:      Toward,
		Insertion: LIFO,
		BestTie:   MostBalanced,
		CorkGuard: true,
		MaxPasses: 0,
	}
}
