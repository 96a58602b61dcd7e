// Package hgpart is a hypergraph partitioning library for VLSI CAD,
// reproducing the testbench, algorithms and experimental methodology of
// Caldwell, Kahng, Kennings and Markov, "Hypergraph Partitioning for VLSI
// CAD: Methodology for Heuristic Development, Experimentation and
// Reporting" (DAC 1999).
//
// The package exports:
//
//   - a weighted hypergraph representation (Builder) and a synthetic
//     ISPD98-like instance generator (MustIBMProfile, Scaled, MustGenerate);
//   - one-call bisection (Bisect) with the multilevel, flat FM and flat
//     CLIP engines;
//   - a Fiduccia–Mattheyses testbench in which every implicit
//     implementation decision (bucket insertion order, zero-delta-gain
//     update policy, tie-breaking biases, CLIP mode, corking guard) is an
//     explicit FMConfig knob;
//   - multistartable heuristics and their raw multistart samples, the
//     material of the paper's evaluation methodology;
//   - k-way partitioning by recursive bisection and the k-way objectives;
//   - exact and spectral baselines;
//   - a top-down recursive-bisection placer, the driving application.
//
// Netlist I/O, the evaluation harness and the portfolio scheduler live in
// the commands (cmd/hgconvert, cmd/hgpart, cmd/hgeval, cmd/hgserved).
//
// Quick start:
//
//	h := hgpart.MustGenerate(hgpart.Scaled(hgpart.MustIBMProfile(1), 0.1))
//	p, res, err := hgpart.Bisect(h, hgpart.BisectOptions{Tolerance: 0.02, Starts: 4})
//	fmt.Println("cut:", res.Cut)
package hgpart

import (
	"context"
	"fmt"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/placer"
	"hgpart/internal/portfolio"
	"hgpart/internal/rng"
)

// Re-exported core types. Aliases keep the implementation in focused
// internal packages while presenting one import path to users.
type (
	// Hypergraph is a weighted hypergraph in CSR form.
	Hypergraph = hypergraph.Hypergraph
	// Builder accumulates vertices and nets into a Hypergraph.
	Builder = hypergraph.Builder
	// Stats summarizes instance statistics (§2.1 of the paper).
	Stats = hypergraph.Stats
	// Balance is a per-side area constraint.
	Balance = partition.Balance
	// Partition is mutable 2-way partition state.
	Partition = partition.P
	// FMConfig fully describes a flat FM/CLIP variant.
	FMConfig = core.Config
	// FMEngine runs flat FM passes over a partition.
	FMEngine = core.Engine
	// MLConfig parameterizes the multilevel partitioner.
	MLConfig = multilevel.Config
	// GenSpec parameterizes the synthetic instance generator.
	GenSpec = gen.Spec
	// PlacerConfig controls the top-down placer.
	PlacerConfig = placer.Config
	// Placement is the placer result.
	Placement = placer.Placement
	// RNG is the deterministic random generator used throughout.
	RNG = rng.RNG
	// Heuristic is one independently startable partitioning method.
	Heuristic = eval.Heuristic
	// Outcome is the result of one heuristic start.
	Outcome = eval.Outcome
)

// Re-exported FM configuration enums.
const (
	AllDeltaGain = core.AllDeltaGain
	NonzeroOnly  = core.NonzeroOnly
	Away         = core.Away
	Part0        = core.Part0
	Toward       = core.Toward
	LIFO         = core.LIFO
	FIFO         = core.FIFO
	RandomOrder  = core.RandomOrder
	FirstBest    = core.FirstBest
	LastBest     = core.LastBest
	MostBalanced = core.MostBalanced
)

// NewBuilder returns a hypergraph builder with capacity hints.
func NewBuilder(vertexHint, edgeHint int) *Builder {
	return hypergraph.NewBuilder(vertexHint, edgeHint)
}

// NewBalance converts a fractional tolerance (0.02 = sides within
// [49%, 51%]) into absolute bounds.
func NewBalance(totalWeight int64, tolerance float64) Balance {
	return partition.NewBalance(totalWeight, tolerance)
}

// NewPartition allocates partition state for h.
func NewPartition(h *Hypergraph) *Partition { return partition.New(h) }

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// ComputeStats derives instance statistics for h.
func ComputeStats(h *Hypergraph) Stats { return hypergraph.ComputeStats(h) }

// NewFMEngine builds a flat FM engine; see FMConfig for the knobs. r is
// required when cfg.Insertion is RandomOrder and harmless otherwise.
func NewFMEngine(h *Hypergraph, cfg FMConfig, bal Balance, r *RNG) *FMEngine {
	return core.NewEngine(h, cfg, bal, r)
}

// StrongFMConfig returns the tuned flat configuration ("Our LIFO"/"Our
// CLIP" in the paper's Tables 2/3).
func StrongFMConfig(clip bool) FMConfig { return core.StrongConfig(clip) }

// Generate synthesizes an instance from spec.
func Generate(spec GenSpec) (*Hypergraph, error) { return gen.Generate(spec) }

// MustGenerate is Generate that panics on error.
func MustGenerate(spec GenSpec) *Hypergraph { return gen.MustGenerate(spec) }

// MustIBMProfile returns the synthetic stand-in spec for ISPD98 instance i
// (1-18), matching the published cell/net/pin statistics; it panics on an
// invalid index.
func MustIBMProfile(i int) GenSpec { return gen.MustIBMProfile(i) }

// Scaled downsizes a generator spec by factor f in (0, 1].
func Scaled(spec GenSpec, f float64) GenSpec { return gen.Scaled(spec, f) }

// Place runs top-down recursive min-cut bisection placement on h.
func Place(h *Hypergraph, cfg PlacerConfig) (*Placement, error) { return placer.Place(h, cfg) }

// EngineKind selects the partitioning engine for Bisect.
type EngineKind int

const (
	// EngineML is the multilevel partitioner (default; strongest).
	EngineML EngineKind = iota
	// EngineFlatFM is tuned flat LIFO FM.
	EngineFlatFM
	// EngineFlatCLIP is tuned flat CLIP FM.
	EngineFlatCLIP
)

// engineNames maps each EngineKind to the engine name hgpart -engine and
// hgserved requests use.
var engineNames = [...]string{EngineML: "ml", EngineFlatFM: "flat", EngineFlatCLIP: "clip"}

// BisectOptions configures the one-call Bisect API.
type BisectOptions struct {
	// Tolerance is the balance tolerance (default 0.02).
	Tolerance float64
	// Starts is the number of independent starts; the best is kept
	// (default 1).
	Starts int
	// VCycles applied to the best solution when Engine is EngineML
	// (default 1).
	VCycles int
	// Engine selects the algorithm (default EngineML).
	Engine EngineKind
	// Seed drives all randomization (default 1).
	Seed uint64
	// ReferenceImpl runs the frozen seed FM implementation instead of the
	// arena-based engine. Results are bit-identical either way (the
	// differential tests enforce it); the reference exists for exactly that
	// comparison, and for honest before/after timing via cmd/hgbench.
	ReferenceImpl bool
}

// BisectResult reports the outcome of Bisect.
type BisectResult struct {
	// Cut is the weighted cut of the returned partition.
	Cut int64
	// Seconds is the total wall-clock time of all starts.
	Seconds float64
	// Work is the total deterministic work-unit count.
	Work int64
}

// Bisect partitions h into two sides with the selected engine: Starts
// independent starts through the multistart harness on one worker, then the
// harness's finish step (VCycles V-cycles on the best start for EngineML).
// It computes what `hgpart -workers N` and a fixed-engine hgserved request
// with the same seed and starts compute, so all three report the same
// partition, cut and work.
func Bisect(h *Hypergraph, opt BisectOptions) (*Partition, BisectResult, error) {
	if opt.Tolerance <= 0 {
		opt.Tolerance = 0.02
	}
	if opt.Starts <= 0 {
		opt.Starts = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.VCycles == 0 {
		opt.VCycles = 1
	}
	if opt.Engine < 0 || int(opt.Engine) >= len(engineNames) {
		return nil, BisectResult{}, fmt.Errorf("hgpart: unknown engine %d", opt.Engine)
	}
	bal := partition.NewBalance(h.TotalVertexWeight(), opt.Tolerance)
	arm := portfolio.FixedArm(engineNames[opt.Engine], opt.VCycles)
	arm.Config.ReferenceImpl = opt.ReferenceImpl
	factory := arm.Factory(h, bal, opt.Seed)
	rep := eval.RunMultistart(context.Background(), factory, opt.Starts, opt.Seed, eval.RunOptions{Workers: 1})
	if rep.BestIdx < 0 {
		return nil, BisectResult{}, fmt.Errorf("hgpart: no legal partition found (tolerance %.3f may be infeasible)", opt.Tolerance)
	}
	best, err := eval.Finish(factory, opt.Seed, rep)
	if err != nil {
		return nil, BisectResult{}, err
	}
	return best.P, BisectResult{Cut: best.Cut, Seconds: best.Seconds, Work: best.Work}, nil
}

// MultistartSamples runs n independent starts of heur, start i seeded from
// the i-th draw of r, and returns the successful starts' outcomes plus the
// best one — the raw material for best-so-far curves and significance tests.
func MultistartSamples(heur Heuristic, n int, r *RNG) ([]Outcome, Outcome) {
	rep := eval.Multistart(context.Background(), heur, n, r, nil)
	return rep.Outcomes(), rep.Best
}

// NewFlatHeuristic wraps a flat FM configuration as a multistartable
// Heuristic.
func NewFlatHeuristic(label string, h *Hypergraph, cfg FMConfig, bal Balance, r *RNG) Heuristic {
	return eval.NewFlat(label, h, cfg, bal, r)
}

// NewMLHeuristic wraps the multilevel partitioner as a multistartable
// Heuristic with vcycles V-cycles applied to the best of a multistart.
func NewMLHeuristic(label string, h *Hypergraph, cfg MLConfig, bal Balance, vcycles int) Heuristic {
	return eval.NewML(label, h, cfg, bal, vcycles)
}
