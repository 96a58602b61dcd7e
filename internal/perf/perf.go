// Package perf is the reproducible benchmark runner behind cmd/hgbench.
//
// The paper's methodology chapter argues that (cost, runtime) trade-offs are
// the unit of comparison for iterative heuristics, and that runtime claims
// are meaningless unless the experiment is controlled: pinned inputs, pinned
// seeds, warmup, repetition, and a robust aggregate. This package applies
// that discipline to the repository's own hot path. Every case runs the
// frozen seed implementation (the reference path) and the optimized path on
// identical pinned instances and seed streams — the two are bit-identical by
// construction, which the runner re-verifies by comparing total move counts
// — and reports ns/move and allocs/move for each, plus their ratio.
//
// Timing normalization: ns/move divides wall time by the number of FM moves
// made, the same per-machine normalization the repository's Work counter
// provides deterministically; allocs/move divides the runtime.MemStats
// malloc-count delta by moves, the quantity CI pins to zero for the
// steady-state pass loop.
package perf

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// Case is one benchmark: a pinned instance plus a pinned workload, with a
// reference and an optimized execution of the same work.
type Case struct {
	// Name identifies the case in reports; it is the key regression checks
	// match on.
	Name string
	// Build constructs the two workload closures. Each closure runs the full
	// pinned multistart batch once and returns the number of FM moves made.
	// Build is called once per measurement; the closures own all state they
	// need, pre-sized so that steady-state repetitions do not allocate in
	// harness code.
	Build func() (reference, optimized func() int64)
	// AssertZeroAlloc marks cases whose optimized path must not allocate at
	// all in steady state (the flat-FM and k-way pass loops). Cases with
	// inherent per-start allocations (multilevel hierarchy construction)
	// leave it false.
	AssertZeroAlloc bool
	// Parallel marks cases whose optimized closure runs on multiple OS
	// threads; the runner then skips its single-P pin (which would serialize
	// the workers and measure nothing but scheduling overhead).
	Parallel bool
	// MinSpeedup, when > 0, is the minimum reference/optimized ns-per-move
	// ratio CheckSpeedups enforces — but only on hosts with at least
	// MinSpeedupCPUs CPUs, since a parallel speedup target is unfalsifiable
	// on a smaller machine. On smaller hosts the gate degrades to a no-
	// severe-slowdown bound instead.
	MinSpeedup     float64
	MinSpeedupCPUs int
}

// Metrics summarizes one implementation's measured reps.
type Metrics struct {
	// NsPerMove is the median over reps of wall-nanoseconds per FM move.
	NsPerMove float64 `json:"ns_per_move"`
	// AllocsPerMove is total heap allocations across all measured reps
	// divided by total moves.
	AllocsPerMove float64 `json:"allocs_per_move"`
	// Moves is the total number of FM moves across all measured reps.
	Moves int64 `json:"moves"`
	// Reps is the number of measured repetitions.
	Reps int `json:"reps"`
}

// CaseResult pairs the two implementations' metrics for one case.
type CaseResult struct {
	Name      string  `json:"name"`
	Reference Metrics `json:"reference"`
	Optimized Metrics `json:"optimized"`
	// Speedup is reference ns/move divided by optimized ns/move.
	Speedup float64 `json:"speedup"`
	// Parallel marks a thread-scaling case (both closures run the same
	// parallel code at different thread counts). Persisted so baseline
	// comparisons know to gate it via CheckSpeedups rather than ns/move.
	Parallel bool `json:"parallel,omitempty"`
}

// Report is the machine-readable output of a suite run (BENCH_pr3.json).
// It deliberately carries no timestamps or hostnames: rerunning the same
// suite with the same toolchain on the same machine should produce a file
// that differs only in measured numbers.
type Report struct {
	Schema    string       `json:"schema"`
	Suite     string       `json:"suite"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Warmup    int          `json:"warmup"`
	Reps      int          `json:"reps"`
	Cases     []CaseResult `json:"cases"`
	// GeomeanSpeedup aggregates per-case speedups the way the paper
	// aggregates per-benchmark ratios.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// SchemaV1 identifies the report format.
const SchemaV1 = "hgbench/v1"

// Runner executes cases with fixed warmup and repetition counts.
type Runner struct {
	// Warmup runs are executed and discarded before measurement; they size
	// every arena so the measured reps see the steady state.
	Warmup int
	// Reps is the number of measured repetitions; ns/move is the median.
	Reps int
}

// measure runs one workload closure Warmup+Reps times and aggregates.
func (r Runner) measure(run func() int64, parallel bool) Metrics {
	for i := 0; i < r.Warmup; i++ {
		run()
	}
	if !parallel {
		// Single-P measurement, as testing.AllocsPerRun does: background
		// scheduling cannot smear allocations or time across the sample.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		nsPerMove, moves, mallocs := r.sample(run)
		return Metrics{NsPerMove: median(nsPerMove), AllocsPerMove: float64(mallocs) / float64(moves), Moves: moves, Reps: r.Reps}
	}

	// Parallel cases are timed with all Ps — pinning would serialize the
	// very workers whose speedup is being measured. Their allocations are
	// counted in a second, single-P pass, as testing.AllocsPerRun does: with
	// several Ps the runtime moves its parked-goroutine caches between them
	// and refills a drained one from the heap, which under ambient load
	// shows up as stray mallocs the workload itself never makes.
	nsPerMove, moves, _ := r.sample(run)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The resize dropped the removed Ps' caches; refill them on a discarded
	// rep so the counted ones see the single-P steady state.
	run()
	_, allocMoves, mallocs := r.sample(run)
	return Metrics{NsPerMove: median(nsPerMove), AllocsPerMove: float64(mallocs) / float64(allocMoves), Moves: moves, Reps: r.Reps}
}

// sample runs Reps measured repetitions and returns the sorted per-rep
// ns/move, the total move count and the total heap allocation count.
func (r Runner) sample(run func() int64) (nsPerMove []float64, totalMoves int64, mallocs uint64) {
	nsPerMove = make([]float64, 0, r.Reps)
	var ms runtime.MemStats
	for i := 0; i < r.Reps; i++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		moves := run()
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if moves <= 0 {
			moves = 1 // degenerate workload; avoid dividing by zero
		}
		totalMoves += moves
		mallocs += ms.Mallocs - m0
		nsPerMove = append(nsPerMove, float64(elapsed.Nanoseconds())/float64(moves))
	}
	sort.Float64s(nsPerMove)
	return nsPerMove, totalMoves, mallocs
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// RunCase measures both implementations of one case and cross-checks that
// they did identical work (equal total move counts — the cheap observable
// consequence of bit-identical behavior).
func (r Runner) RunCase(c Case) (CaseResult, error) {
	reference, optimized := c.Build()
	refM := r.measure(reference, c.Parallel)
	optM := r.measure(optimized, c.Parallel)
	if refM.Moves != optM.Moves {
		return CaseResult{}, fmt.Errorf(
			"perf: case %q: reference made %d moves but optimized made %d — the implementations diverged",
			c.Name, refM.Moves, optM.Moves)
	}
	res := CaseResult{Name: c.Name, Reference: refM, Optimized: optM, Parallel: c.Parallel}
	if optM.NsPerMove > 0 {
		res.Speedup = refM.NsPerMove / optM.NsPerMove
	}
	return res, nil
}

// RunSuite measures every case and assembles the report.
func (r Runner) RunSuite(suite string, cases []Case) (Report, error) {
	rep := Report{
		Schema:    SchemaV1,
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Warmup:    r.Warmup,
		Reps:      r.Reps,
	}
	logSpeedup := 0.0
	for _, c := range cases {
		cr, err := r.RunCase(c)
		if err != nil {
			return Report{}, err
		}
		rep.Cases = append(rep.Cases, cr)
		logSpeedup += math.Log(cr.Speedup)
	}
	if len(rep.Cases) > 0 {
		rep.GeomeanSpeedup = math.Exp(logSpeedup / float64(len(rep.Cases)))
	}
	return rep, nil
}

// CheckRegression compares a fresh report against a committed baseline:
// every baseline case must still exist, and its optimized ns/move must not
// have regressed by more than tolerance (e.g. 0.10 for 10%).
//
// Raw ns/move is not comparable across machine states — ambient load,
// frequency scaling, and a different host all shift every measurement by
// the same factor (the speed-dependent-ranking trap METHODOLOGY.md quotes
// from Schreiber & Martin). The frozen reference implementation runs in the
// same process on the same inputs, so its drift measures exactly that
// factor. The check therefore rescales the current optimized ns/move into
// baseline machine units by base.Reference/current.Reference before
// comparing: a real code regression changes opt relative to ref and still
// trips the gate, while uniform machine slowdown cancels. Cases without a
// usable reference measurement fall back to the raw comparison.
//
// Returned problems are human-readable; an empty slice means the check
// passed.
func CheckRegression(current, baseline Report, tolerance float64) []string {
	var problems []string
	cur := make(map[string]CaseResult, len(current.Cases))
	for _, c := range current.Cases {
		cur[c.Name] = c
	}
	for _, base := range baseline.Cases {
		c, ok := cur[base.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("case %q present in baseline but not in current run", base.Name))
			continue
		}
		if base.Parallel {
			// Thread-scaling cases are gated by CheckSpeedups instead: their
			// "reference" is the same parallel code at one thread, not a
			// frozen serial yardstick, so the drift normalization below
			// would just amplify scheduler noise — especially on hosts with
			// fewer CPUs than the case's thread count.
			continue
		}
		adjusted := c.Optimized.NsPerMove
		note := ""
		if c.Reference.NsPerMove > 0 && base.Reference.NsPerMove > 0 {
			adjusted = c.Optimized.NsPerMove * base.Reference.NsPerMove / c.Reference.NsPerMove
			note = " (machine-drift adjusted via reference)"
		}
		limit := base.Optimized.NsPerMove * (1 + tolerance)
		if adjusted > limit {
			problems = append(problems, fmt.Sprintf(
				"case %q: optimized ns/move %.1f%s exceeds baseline %.1f by more than %.0f%%",
				base.Name, adjusted, note, base.Optimized.NsPerMove, tolerance*100))
		}
	}
	return problems
}

// CheckZeroAllocs verifies that every case marked AssertZeroAlloc measured
// exactly zero optimized-path allocations per move.
func CheckZeroAllocs(rep Report, cases []Case) []string {
	mustBeZero := make(map[string]bool, len(cases))
	for _, c := range cases {
		if c.AssertZeroAlloc {
			mustBeZero[c.Name] = true
		}
	}
	var problems []string
	for _, c := range rep.Cases {
		if mustBeZero[c.Name] && c.Optimized.AllocsPerMove != 0 {
			problems = append(problems, fmt.Sprintf(
				"case %q: optimized path allocates %.6f times per move in steady state, want 0",
				c.Name, c.Optimized.AllocsPerMove))
		}
	}
	return problems
}

// CheckSpeedups verifies every case's MinSpeedup target against the measured
// reference/optimized ratio. The full target only arms on hosts with at
// least MinSpeedupCPUs CPUs: a 4-thread speedup claim cannot be tested on a
// 1-CPU machine, where the same case instead degrades to a bound against
// severe slowdown (the synchronization overhead a correct synchronous-round
// implementation still pays when its workers share one CPU).
func CheckSpeedups(rep Report, cases []Case) []string {
	// On an undersized host, tolerate up to 2x slowdown before failing.
	const maxSerialSlowdown = 0.5

	targets := make(map[string]Case, len(cases))
	for _, c := range cases {
		if c.MinSpeedup > 0 {
			targets[c.Name] = c
		}
	}
	cpus := runtime.NumCPU()
	var problems []string
	for _, cr := range rep.Cases {
		c, ok := targets[cr.Name]
		if !ok {
			continue
		}
		want := c.MinSpeedup
		if cpus < c.MinSpeedupCPUs {
			want = maxSerialSlowdown
		}
		if cr.Speedup < want {
			problems = append(problems, fmt.Sprintf(
				"case %q: speedup %.2fx below required %.2fx (host has %d CPUs; full %.2fx target arms at %d)",
				cr.Name, cr.Speedup, want, cpus, c.MinSpeedup, c.MinSpeedupCPUs))
		}
	}
	return problems
}
