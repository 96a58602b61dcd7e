// Package hgpart is a hypergraph partitioning library for VLSI CAD,
// reproducing the testbench, algorithms and experimental methodology of
// Caldwell, Kahng, Kennings and Markov, "Hypergraph Partitioning for VLSI
// CAD: Methodology for Heuristic Development, Experimentation and
// Reporting" (DAC 1999).
//
// The library provides:
//
//   - a weighted hypergraph representation with ISPD98 (.netD/.are) and
//     hMETIS (.hgr) I/O and a synthetic ISPD98-like instance generator;
//   - a Fiduccia–Mattheyses testbench in which every implicit
//     implementation decision (bucket insertion order, zero-delta-gain
//     update policy, tie-breaking biases, CLIP mode, corking guard) is an
//     explicit configuration knob;
//   - a multilevel (hMETIS-style) partitioner with V-cycling;
//   - the paper's evaluation methodology: multistart statistics,
//     best-so-far curves, non-dominated (cost, runtime) frontiers,
//     speed-dependent ranking diagrams and significance tests;
//   - a top-down recursive-bisection placer with terminal propagation,
//     the driving application context.
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
	"io"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/netlist"
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
	// FMResult reports a flat engine run.
	FMResult = core.Result
	// FMEngine runs flat FM passes over a partition.
	FMEngine = core.Engine
	// MLConfig parameterizes the multilevel partitioner.
	MLConfig = multilevel.Config
	// MLStats reports a multilevel run.
	MLStats = multilevel.Stats
	// MLPartitioner is the multilevel (hMETIS-style) bisector.
	MLPartitioner = multilevel.Partitioner
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
	// RunOptions configures the fault-tolerant multistart harness.
	RunOptions = eval.RunOptions
	// RunReport is the harness's full per-start and aggregate result.
	RunReport = eval.RunReport
	// StartResult is the fate of one harness start.
	StartResult = eval.StartResult
	// Checkpoint journals completed starts for interrupt/resume.
	Checkpoint = eval.Checkpoint
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

// NaiveFMConfig returns the deliberately weak configuration standing in for
// the paper's "Reported" rows.
func NaiveFMConfig(clip bool) FMConfig { return core.NaiveConfig(clip) }

// NewMLPartitioner builds the multilevel bisector.
func NewMLPartitioner(h *Hypergraph, cfg MLConfig, bal Balance) *MLPartitioner {
	return multilevel.New(h, cfg, bal)
}

// Generate synthesizes an instance from spec.
func Generate(spec GenSpec) (*Hypergraph, error) { return gen.Generate(spec) }

// MustGenerate is Generate that panics on error.
func MustGenerate(spec GenSpec) *Hypergraph { return gen.MustGenerate(spec) }

// IBMProfile returns the synthetic stand-in spec for ISPD98 instance i
// (1-18), matching the published cell/net/pin statistics.
func IBMProfile(i int) (GenSpec, error) { return gen.IBMProfile(i) }

// MustIBMProfile is IBMProfile that panics on an invalid index.
func MustIBMProfile(i int) GenSpec { return gen.MustIBMProfile(i) }

// Scaled downsizes a generator spec by factor f in (0, 1].
func Scaled(spec GenSpec, f float64) GenSpec { return gen.Scaled(spec, f) }

// ParseHGR reads an hMETIS-format hypergraph.
func ParseHGR(r io.Reader, name string) (*Hypergraph, error) { return netlist.ParseHGR(r, name) }

// WriteHGR writes h in hMETIS format (edge and vertex weights).
func WriteHGR(w io.Writer, h *Hypergraph) error { return netlist.WriteHGR(w, h) }

// ParseNetD reads an ISPD98 .netD/.net netlist with an optional .are area
// file (nil for unit areas).
func ParseNetD(netR, areR io.Reader, name string) (*Hypergraph, error) {
	return netlist.ParseNetD(netR, areR, name)
}

// WriteNetD writes h as an ISPD98 .netD netlist.
func WriteNetD(w io.Writer, h *Hypergraph) error { return netlist.WriteNetD(w, h) }

// WriteAre writes h's vertex areas as an ISPD98 .are file.
func WriteAre(w io.Writer, h *Hypergraph) error { return netlist.WriteAre(w, h) }

// ParseError is the typed failure every netlist parser returns: it names
// the format ("hgr", "netd", ...) and the instance, and unwraps to the
// underlying cause.
type ParseError = netlist.ParseError

// AsParseError reports whether err stems from netlist parsing and, if so,
// returns the typed error.
func AsParseError(err error) (*ParseError, bool) { return netlist.AsParseError(err) }

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
	bal := partition.NewBalance(h.TotalVertexWeight(), opt.Tolerance)
	cfg := core.StrongConfig(opt.Engine == EngineFlatCLIP)
	cfg.ReferenceImpl = opt.ReferenceImpl

	var factory func() eval.Heuristic
	switch opt.Engine {
	case EngineML:
		factory = func() eval.Heuristic {
			return eval.NewML("ML", h, multilevel.Config{Refine: cfg}, bal, opt.VCycles)
		}
	case EngineFlatFM, EngineFlatCLIP:
		factory = func() eval.Heuristic { return eval.NewFlat("flat", h, cfg, bal, rng.New(opt.Seed)) }
	default:
		return nil, BisectResult{}, fmt.Errorf("hgpart: unknown engine %d", opt.Engine)
	}
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

// RunMultistart runs n independent starts of the heuristic produced by
// factory through the fault-tolerant evaluation harness: cancellation via
// ctx, wall-clock and work-unit budgets, panic isolation, bounded
// retry-with-reseed, per-start verification and checkpoint/resume, all while
// preserving per-start determinism (see internal/eval.RunMultistart).
func RunMultistart(ctx context.Context, factory func() Heuristic, n int, seed uint64, opt RunOptions) *RunReport {
	return eval.RunMultistart(ctx, factory, n, seed, opt)
}

// Finish is the multistart harness's finish step for a run rooted at seed:
// it recovers a best start resumed from a checkpoint journal (recomputing
// it and checking its cut), polishes the best with a heuristic from factory
// seeded from seed, and returns the final outcome with the whole run's work,
// polish included (see internal/eval.Finish).
func Finish(factory func() Heuristic, seed uint64, rep *RunReport) (Outcome, error) {
	return eval.Finish(factory, seed, rep)
}

// OpenCheckpoint opens (or, with resume, reloads) a JSONL start journal for
// an experiment identified by (name, seed, n); pass it via
// RunOptions.Checkpoint so an interrupted multistart can be resumed with
// identical aggregate statistics.
func OpenCheckpoint(path, name string, seed uint64, n int, resume bool) (*Checkpoint, error) {
	return eval.OpenCheckpoint(path, name, seed, n, resume)
}

// VerifyOutcome returns the standard per-start verifier for
// RunOptions.Verify: partition-state consistency, the balance constraint and
// cut agreement.
func VerifyOutcome(bal Balance) func(Outcome) error { return eval.VerifyOutcome(bal) }

// MCNCProfile returns a synthetic stand-in spec for a classic MCNC test
// case (unit areas, no macros) — the old-era benchmark class the paper
// contrasts with ISPD98. See MCNCNames for the available circuits.
func MCNCProfile(name string) (GenSpec, error) { return gen.MCNCProfile(name) }

// MCNCNames lists the available MCNC profile names.
func MCNCNames() []string { return gen.MCNCNames() }

// Portfolio scheduling (DESIGN.md §15): cheap instance features bucket each
// request, a curated portfolio of engine configurations races for the first
// slice of the budget, and the remaining budget commits to the Pareto-best
// arm. The result is a pure function of (instance, seed, starts, budget).
type (
	// PortfolioFeatures is the deterministic instance-feature vector.
	PortfolioFeatures = portfolio.Features
	// PortfolioBucket is the discretized feature grid cell.
	PortfolioBucket = portfolio.Bucket
	// PortfolioArm is one engine configuration in the racing portfolio.
	PortfolioArm = portfolio.Arm
	// PortfolioScheduler races arms and commits to the winner.
	PortfolioScheduler = portfolio.Scheduler
	// PortfolioRaceResult is the racing slice's outcome.
	PortfolioRaceResult = portfolio.RaceResult
	// PortfolioResult is the full race+commit outcome.
	PortfolioResult = portfolio.Result
)

// ExtractPortfolioFeatures computes the deterministic feature vector in one
// O(pins) sweep.
func ExtractPortfolioFeatures(h *Hypergraph) PortfolioFeatures { return portfolio.Extract(h) }

// PortfolioBucketOf discretizes a feature vector onto the bucket grid.
func PortfolioBucketOf(f PortfolioFeatures) PortfolioBucket { return portfolio.BucketOf(f) }

// DefaultPortfolioArms returns the curated racing portfolio.
func DefaultPortfolioArms() []PortfolioArm { return portfolio.DefaultArms() }

// RunPortfolio executes the full portfolio schedule — race then commit —
// and returns the byte-deterministic result.
func RunPortfolio(ctx context.Context, h *Hypergraph, bal Balance, seed uint64,
	starts int, workBudget int64) (*PortfolioResult, error) {
	return (&portfolio.Scheduler{}).Run(ctx, h, bal, seed, starts, workBudget)
}
