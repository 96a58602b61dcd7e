package eval_test

// Harness acceptance tests: fault isolation, cancellation, budgets,
// retry-with-reseed, verification and checkpoint/resume — each proved with
// injected faults (faults_test.go).

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

func harnessInstance(tb testing.TB) (*hypergraph.Hypergraph, partition.Balance) {
	tb.Helper()
	h, err := gen.Generate(gen.Spec{
		Name: "harness-test", Cells: 300, Nets: 330, AvgNetSize: 3.3,
		NumMacros: 2, MaxMacroFrac: 0.03, NumGlobalNets: 1,
		GlobalNetFrac: 0.02, Locality: 2, Seed: 5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h, partition.NewBalance(h.TotalVertexWeight(), 0.10)
}

func flatFactory(h *hypergraph.Hypergraph, bal partition.Balance) func() eval.Heuristic {
	return func() eval.Heuristic {
		return eval.NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(17))
	}
}

func faultyFactory(h *hypergraph.Hypergraph, bal partition.Balance, cfg faultConfig) func() eval.Heuristic {
	inner := flatFactory(h, bal)
	return func() eval.Heuristic { return wrapFaults(inner(), cfg) }
}

// A panicking start must be recorded as failed without aborting sibling
// starts, and the surviving outcomes must match a fault-free schedule of the
// same seeds.
func TestHarnessPanicIsolation(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := faultyFactory(h, bal, faultConfig{PanicProb: 0.4, Salt: 9})
	rep := eval.RunMultistart(context.Background(), factory, 12, 31, eval.RunOptions{Workers: 4})

	if rep.Failed == 0 || rep.Completed == 0 {
		t.Fatalf("want a mix of failed and completed starts, got ok=%d failed=%d", rep.Completed, rep.Failed)
	}
	if rep.Incomplete || rep.Skipped != 0 {
		t.Fatalf("panics must not skip siblings: %+v", rep)
	}
	for _, sr := range rep.Results {
		if sr.Status != eval.StartFailed {
			continue
		}
		var pe *eval.PanicError
		if !errors.As(sr.Err, &pe) || !errors.Is(sr.Err, errInjectedPanic) {
			t.Fatalf("start %d: failure not a recovered injected panic: %v", sr.Start, sr.Err)
		}
	}
	// The process survived and the successful starts are deterministic:
	// compare against a single-worker schedule.
	ref := eval.RunMultistart(context.Background(), factory, 12, 31, eval.RunOptions{Workers: 1})
	for i := range rep.Results {
		if rep.Results[i].Status != ref.Results[i].Status ||
			rep.Results[i].Outcome.Cut != ref.Results[i].Outcome.Cut {
			t.Fatalf("start %d differs from single-worker schedule", i)
		}
	}
}

// Bounded retry-with-reseed turns probabilistic panics into completed starts
// while recording the attempt count.
func TestHarnessRetryWithReseed(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := faultyFactory(h, bal, faultConfig{PanicProb: 0.6, Salt: 3})
	rep := eval.RunMultistart(context.Background(), factory, 10, 44, eval.RunOptions{Workers: 3, MaxRetries: 16})
	if rep.Failed != 0 {
		t.Fatalf("retries should recover every start at p=0.6: %d failed", rep.Failed)
	}
	retried := 0
	for _, sr := range rep.Results {
		if sr.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no start needed a retry at PanicProb 0.6 over 10 starts — injection broken?")
	}
}

// cancellingHeuristic cancels the run's context after its third completed
// start, modeling an external kill arriving mid-sweep.
type cancellingHeuristic struct {
	eval.Heuristic
	runs   *atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingHeuristic) Run(r *rng.RNG) eval.Outcome {
	o := c.Heuristic.Run(r)
	if c.runs.Add(1) == 3 {
		c.cancel()
	}
	return o
}

// A cancelled context returns partial outcomes marked incomplete.
func TestHarnessCancellationReturnsPartialResults(t *testing.T) {
	h, bal := harnessInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	inner := flatFactory(h, bal)
	factory := func() eval.Heuristic {
		return &cancellingHeuristic{Heuristic: inner(), runs: &runs, cancel: cancel}
	}
	rep := eval.RunMultistart(ctx, factory, 30, 7, eval.RunOptions{Workers: 2})
	if !rep.Incomplete || rep.Reason != "cancelled" {
		t.Fatalf("want incomplete/cancelled, got %+v", rep)
	}
	if rep.Completed < 3 || rep.Skipped == 0 {
		t.Fatalf("want partial completion, got ok=%d skipped=%d", rep.Completed, rep.Skipped)
	}
	// Completed outcomes are real results, not placeholders.
	for _, sr := range rep.Results {
		if sr.Status == eval.StartOK && sr.Outcome.Cut <= 0 {
			t.Fatalf("start %d completed with implausible cut %d", sr.Start, sr.Outcome.Cut)
		}
	}
	if rep.BestIdx < 0 || rep.Best.P == nil {
		t.Fatal("partial run should still surface a best partition")
	}
}

// A wall-clock budget stops dispatching but lets in-flight (stalled) starts
// finish.
func TestHarnessWallBudget(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := faultyFactory(h, bal, faultConfig{StallProb: 1, StallFor: 30 * time.Millisecond})
	rep := eval.RunMultistart(context.Background(), factory, 16, 21,
		eval.RunOptions{Workers: 2, WallBudget: 45 * time.Millisecond})
	if !rep.Incomplete || rep.Reason != "wall-clock budget exhausted" {
		t.Fatalf("want wall-budget incomplete, got %+v", rep)
	}
	if rep.Completed == 0 || rep.Skipped == 0 {
		t.Fatalf("want partial completion under wall budget, got ok=%d skipped=%d", rep.Completed, rep.Skipped)
	}
}

// A work-unit budget is deterministic: with one worker, exactly one start
// completes before the counter trips.
func TestHarnessWorkBudget(t *testing.T) {
	h, bal := harnessInstance(t)
	rep := eval.RunMultistart(context.Background(), flatFactory(h, bal), 6, 13,
		eval.RunOptions{Workers: 1, WorkBudget: 1})
	if rep.Completed != 1 || rep.Skipped != 5 {
		t.Fatalf("work budget 1 with 1 worker: want 1 completed/5 skipped, got %d/%d", rep.Completed, rep.Skipped)
	}
	if !rep.Incomplete || rep.Reason != "work budget exhausted" {
		t.Fatalf("want work-budget incomplete, got %q", rep.Reason)
	}
}

// Same seed ⇒ same per-start outcomes regardless of worker count, even with
// panics and corruption firing and retries in play.
func TestHarnessDeterministicAcrossWorkersUnderFaults(t *testing.T) {
	h, bal := harnessInstance(t)
	cfg := faultConfig{PanicProb: 0.3, CorruptProb: 0.25, Salt: 12}
	opt := func(workers int) eval.RunOptions {
		return eval.RunOptions{Workers: workers, MaxRetries: 3, Verify: eval.VerifyOutcome(bal)}
	}
	base := eval.RunMultistart(context.Background(), faultyFactory(h, bal, cfg), 14, 64, opt(1))
	for _, workers := range []int{3, 8} {
		rep := eval.RunMultistart(context.Background(), faultyFactory(h, bal, cfg), 14, 64, opt(workers))
		for i := range base.Results {
			a, b := base.Results[i], rep.Results[i]
			if a.Status != b.Status || a.Attempts != b.Attempts || a.Outcome.Cut != b.Outcome.Cut || a.Outcome.Work != b.Outcome.Work {
				t.Fatalf("workers=%d start %d: (%v,%d,%d,%d) vs (%v,%d,%d,%d)", workers, i,
					a.Status, a.Attempts, a.Outcome.Cut, a.Outcome.Work,
					b.Status, b.Attempts, b.Outcome.Cut, b.Outcome.Work)
			}
		}
		if rep.Summary() != base.Summary() {
			t.Fatalf("workers=%d summary differs:\n%s\n%s", workers, base.Summary(), rep.Summary())
		}
	}
}

// Silent corruption — a partition modified after its cut was measured — must
// be converted into a recorded failure by outcome verification.
func TestHarnessVerifyCatchesSilentCorruption(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := faultyFactory(h, bal, faultConfig{CorruptProb: 1})
	rep := eval.RunMultistart(context.Background(), factory, 5, 3,
		eval.RunOptions{Workers: 2, Verify: eval.VerifyOutcome(bal)})
	if rep.Failed != 5 || rep.Completed != 0 {
		t.Fatalf("all corrupted starts must fail verification: ok=%d failed=%d", rep.Completed, rep.Failed)
	}
	var iv *core.InvariantViolation
	if !errors.As(rep.Results[0].Err, &iv) {
		t.Fatalf("failure should be a structured invariant violation, got %v", rep.Results[0].Err)
	}
	// Without verification the corruption passes silently — the check is
	// what converts it into an error.
	unverified := eval.RunMultistart(context.Background(), factory, 5, 3, eval.RunOptions{Workers: 2})
	if unverified.Completed != 5 {
		t.Fatalf("control run without verify should complete: %+v", unverified)
	}
}

// A killed-then-resumed checkpointed run reproduces byte-identical aggregate
// statistics to an uninterrupted run with the same seed.
func TestHarnessCheckpointResumeReproducesStats(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := flatFactory(h, bal)
	const n, seed = 10, 77
	path := filepath.Join(t.TempDir(), "run.jsonl")

	uninterrupted := eval.RunMultistart(context.Background(), factory, n, seed, eval.RunOptions{Workers: 3})

	// "Kill" a checkpointed run early via a tiny work budget.
	cp1, err := eval.OpenCheckpoint(path, "flat", seed, n, false)
	if err != nil {
		t.Fatal(err)
	}
	killed := eval.RunMultistart(context.Background(), factory, n, seed,
		eval.RunOptions{Workers: 3, WorkBudget: 1, Checkpoint: cp1})
	if err := cp1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}
	if !killed.Incomplete || killed.Completed == 0 || killed.Skipped == 0 {
		t.Fatalf("interrupted run not actually partial: %+v", killed)
	}

	// Resume: journaled starts are skipped, the rest run fresh.
	cp2, err := eval.OpenCheckpoint(path, "flat", seed, n, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Resumed() != killed.Completed+killed.Failed {
		t.Fatalf("journal holds %d starts, interrupted run finished %d", cp2.Resumed(), killed.Completed+killed.Failed)
	}
	resumed := eval.RunMultistart(context.Background(), factory, n, seed,
		eval.RunOptions{Workers: 3, Checkpoint: cp2})
	if resumed.Resumed == 0 {
		t.Fatal("resume did not reuse any journaled start")
	}
	if resumed.Incomplete {
		t.Fatalf("resumed run incomplete: %+v", resumed)
	}
	for i := range uninterrupted.Results {
		if uninterrupted.Results[i].Outcome.Cut != resumed.Results[i].Outcome.Cut {
			t.Fatalf("start %d: uninterrupted cut %d vs resumed %d", i,
				uninterrupted.Results[i].Outcome.Cut, resumed.Results[i].Outcome.Cut)
		}
	}
	if a, b := uninterrupted.Summary(), resumed.Summary(); a != b {
		t.Fatalf("aggregate statistics differ:\nuninterrupted: %s\nresumed:       %s", a, b)
	}

	// A journal must never be replayed into a different experiment.
	if _, err := eval.OpenCheckpoint(path, "flat", seed+1, n, true); err == nil {
		t.Fatal("resume with a different seed must be refused")
	}
	if _, err := eval.OpenCheckpoint(path, "ml", seed, n, true); err == nil {
		t.Fatal("resume with a different heuristic name must be refused")
	}
}

// Debug-mode engine invariant checking must not change results — it only
// observes — and the harness must convert an engine-internal violation
// (delivered as a panic) into a failed start. The healthy engine is its own
// control here.
func TestHarnessEngineDebugModeIsTransparent(t *testing.T) {
	h, bal := harnessInstance(t)
	checked := func() eval.Heuristic {
		cfg := core.StrongConfig(false)
		cfg.CheckInvariants = true
		return eval.NewFlat("flat", h, cfg, bal, rng.New(17))
	}
	plain := eval.RunMultistart(context.Background(), flatFactory(h, bal), 6, 11, eval.RunOptions{Workers: 2})
	debug := eval.RunMultistart(context.Background(), checked, 6, 11, eval.RunOptions{Workers: 2})
	if debug.Failed != 0 {
		t.Fatalf("healthy engine failed its own invariants: %v", debug.Results)
	}
	for i := range plain.Results {
		if plain.Results[i].Outcome.Cut != debug.Results[i].Outcome.Cut {
			t.Fatalf("start %d: debug mode changed the result", i)
		}
	}
}

// The sequential Multistart seeded from rng.New(seed) must reproduce
// RunMultistart rooted at seed start for start, verified or not — the
// experiment drivers and the served/CLI paths share one seed rule.
func TestMultistartMatchesRunMultistart(t *testing.T) {
	h, bal := harnessInstance(t)
	f := flatFactory(h, bal)
	a := eval.RunMultistart(context.Background(), f, 7, 23, eval.RunOptions{Workers: 3})
	b := eval.Multistart(context.Background(), f(), 7, rng.New(23), eval.VerifyOutcome(bal))
	if b.Failed != 0 || b.Incomplete || b.Completed != 7 {
		t.Fatalf("sequential run misbehaved: %s", b.Summary())
	}
	if a.Summary() != b.Summary() || a.BestIdx != b.BestIdx {
		t.Fatalf("reports differ:\n%s\n%s", a.Summary(), b.Summary())
	}
	for i := range a.Results {
		if ao, bo := a.Results[i].Outcome, b.Results[i].Outcome; ao.Cut != bo.Cut || ao.Work != bo.Work {
			t.Fatalf("start %d differs: cut %d/%d work %d/%d", i, ao.Cut, bo.Cut, ao.Work, bo.Work)
		}
	}
	// A cancelled context starts nothing, and still draws all n seeds.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rng.New(23)
	c := eval.Multistart(ctx, f(), 7, r, nil)
	if !c.Incomplete || c.Reason != "cancelled" || len(c.Outcomes()) != 0 {
		t.Fatalf("pre-cancelled multistart should do nothing: %s", c.Summary())
	}
	after := rng.New(23)
	for i := 0; i < 7; i++ {
		after.Uint64()
	}
	if r.Uint64() != after.Uint64() {
		t.Fatal("a cancelled multistart must still draw one seed per start")
	}
}

// Parallel multistart: start i draws from the i-th generator split of the
// seed whatever the worker count, so per-start results never depend on
// scheduling.

// startCuts runs n starts at the given worker count and returns each start's
// cut in start order.
func startCuts(t *testing.T, factory func() eval.Heuristic, bal partition.Balance, n int, seed uint64, workers int) []int64 {
	t.Helper()
	rep := eval.RunMultistart(context.Background(), factory, n, seed, eval.RunOptions{Workers: workers})
	if rep.Completed != n || rep.BestIdx < 0 || !rep.Best.P.Legal(bal) {
		t.Fatalf("workers=%d: %s", workers, rep.Summary())
	}
	cuts := make([]int64, n)
	for i, sr := range rep.Results {
		cuts[i] = sr.Outcome.Cut
	}
	return cuts
}

// sameCuts fails unless got matches ref start for start.
func sameCuts(t *testing.T, what string, got, ref []int64) {
	t.Helper()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s start %d: cut %d vs %d", what, i, got[i], ref[i])
		}
	}
}

func TestParallelMultistartDeterministicAcrossWorkerCounts(t *testing.T) {
	h, bal := harnessInstance(t)
	ref := startCuts(t, flatFactory(h, bal), bal, 9, 41, 1)
	for _, workers := range []int{4, 9} {
		sameCuts(t, fmt.Sprintf("workers=%d", workers), startCuts(t, flatFactory(h, bal), bal, 9, 41, workers), ref)
	}
}

// Start i must equal the i-th root.Split() run of one sequential heuristic.
func TestParallelMultistartMatchesSequential(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := flatFactory(h, bal)
	root := rng.New(55)
	seq := factory()
	ref := make([]int64, 6)
	for i := range ref {
		ref[i] = seq.Run(root.Split()).Cut
	}
	sameCuts(t, "parallel vs sequential", startCuts(t, factory, bal, 6, 55, 3), ref)
}

// Non-positive worker counts mean the default, and more workers than
// starts is fine: both must match workers=1.
func TestParallelMultistartWorkerCountEdges(t *testing.T) {
	h, bal := harnessInstance(t)
	ref := startCuts(t, flatFactory(h, bal), bal, 3, 77, 1)
	for _, workers := range []int{-3, 0, 16} {
		sameCuts(t, fmt.Sprintf("workers=%d", workers), startCuts(t, flatFactory(h, bal), bal, 3, 77, workers), ref)
	}
}

// Only the best start keeps its partition.
func TestParallelMultistartSinglePartitionRetained(t *testing.T) {
	h, bal := harnessInstance(t)
	rep := eval.RunMultistart(context.Background(), flatFactory(h, bal), 5, 2, eval.RunOptions{Workers: 2})
	if rep.BestIdx < 0 || !rep.Best.P.Legal(bal) {
		t.Fatalf("no legal best: %s", rep.Summary())
	}
	for i, sr := range rep.Results {
		if kept := sr.Outcome.P != nil; kept != (i == rep.BestIdx) {
			t.Fatalf("start %d: partition kept=%v, best is %d", i, kept, rep.BestIdx)
		}
	}
}

// n=0 is an empty report with no best, for any worker count.
func TestParallelMultistartZeroStarts(t *testing.T) {
	h, bal := harnessInstance(t)
	for _, workers := range []int{-1, 0, 1, 4} {
		rep := eval.RunMultistart(context.Background(), flatFactory(h, bal), 0, 1, eval.RunOptions{Workers: workers})
		if len(rep.Results) != 0 || rep.Best.P != nil || rep.BestIdx != -1 {
			t.Fatalf("workers=%d: want empty report for n=0, got %d results bestIdx=%d",
				workers, len(rep.Results), rep.BestIdx)
		}
	}
}

// The finish step reports the same result for a live run and for a run
// whose best start was resumed from the journal (and so has no partition):
// it recomputes that start and polishes it with the same seed. A journaled
// cut that the recomputation does not reproduce is an error.
func TestFinishResumedBestMatchesLive(t *testing.T) {
	h, bal := harnessInstance(t)
	factory := func() eval.Heuristic {
		return eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 2)
	}
	const n, seed = 5, 31
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cp, err := eval.OpenCheckpoint(path, "ml", seed, n, false)
	if err != nil {
		t.Fatal(err)
	}
	live := eval.RunMultistart(context.Background(), factory, n, seed, eval.RunOptions{Workers: 2, Checkpoint: cp})
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := eval.Finish(factory, seed, live)
	if err != nil {
		t.Fatal(err)
	}
	if want.Work <= live.TotalWork {
		t.Fatalf("finished work %d does not include the polish (starts %d)", want.Work, live.TotalWork)
	}

	cp2, err := eval.OpenCheckpoint(path, "ml", seed, n, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	resumed := eval.RunMultistart(context.Background(), factory, n, seed, eval.RunOptions{Workers: 2, Checkpoint: cp2})
	if resumed.Resumed != n || resumed.Best.P != nil {
		t.Fatalf("expected a fully resumed run with no best partition: %s", resumed.Summary())
	}
	got, err := eval.Finish(factory, seed, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cut != want.Cut || got.Work != want.Work || got.P.Cut() != want.P.Cut() ||
		got.P.Area(0) != want.P.Area(0) {
		t.Fatalf("resumed finish cut=%d work=%d, live finish cut=%d work=%d", got.Cut, got.Work, want.Cut, want.Work)
	}

	resumed.Best.Cut++
	if _, err := eval.Finish(factory, seed, resumed); err == nil {
		t.Fatal("a journaled cut the recomputation does not reproduce must be an error")
	}
}
