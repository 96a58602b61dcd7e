package eval

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hgpart/internal/core"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Fault-tolerant run harness. The paper's experiments are long multistart
// sweeps — "the equivalent of nearly 10,000 starts for each test case" — and
// a production evaluation service must survive a single bad start: a
// panicking engine, a corrupted partition, a run that blows its time budget.
// RunMultistart layers cancellation, panic isolation, wall-clock and
// work-unit budgets, bounded retry-with-reseed, per-start verification and
// checkpoint/resume over any Heuristic while preserving the per-start
// RNG-split determinism the methodology depends on: start i always derives
// its generator from the i-th split of the root seed, so the same seed gives
// the same per-start outcomes regardless of worker count or which faults
// intervene (budget interruptions excepted — they change which starts run,
// never what a start computes).

// StartStatus classifies one start's fate. The zero value is StartSkipped so
// that a start the dispatcher never reached is reported honestly.
type StartStatus int

const (
	// StartSkipped means the start never ran: the run was cancelled or a
	// budget was exhausted first.
	StartSkipped StartStatus = iota
	// StartOK means the start produced a (verified, if requested) outcome.
	StartOK
	// StartFailed means every attempt panicked or failed verification.
	StartFailed
)

// String returns the status name.
func (s StartStatus) String() string {
	switch s {
	case StartSkipped:
		return "skipped"
	case StartOK:
		return "ok"
	case StartFailed:
		return "failed"
	}
	return "status(?)"
}

// PanicError wraps a recovered panic from a heuristic start.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("eval: start panicked: %v", e.Value) }

// Unwrap exposes a panic value that is itself an error (e.g. the engine's
// *core.InvariantViolation) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// StartResult is the fate of one start.
type StartResult struct {
	// Start is the start index in [0, n).
	Start int
	// Status classifies the result.
	Status StartStatus
	// Resumed reports that the result was loaded from a checkpoint rather
	// than computed this run (its Outcome.P is nil and Seconds reflect the
	// original run).
	Resumed bool
	// Attempts is how many attempts ran (1 + retries); 0 for skipped or
	// resumed starts.
	Attempts int
	// Outcome is the start's result; meaningful when Status == StartOK.
	Outcome Outcome
	// Err is the last attempt's failure; non-nil iff Status == StartFailed.
	Err error
}

// RunOptions configures RunMultistart. The zero value runs all starts on
// GOMAXPROCS workers with no budgets, no retries, no verification and no
// checkpointing.
type RunOptions struct {
	// Workers caps concurrent starts; <= 0 means GOMAXPROCS.
	Workers int
	// WallBudget bounds the run's wall-clock time; 0 means unbounded.
	// In-flight starts run to completion; only undispatched starts are
	// skipped.
	WallBudget time.Duration
	// WorkBudget bounds the cumulative deterministic work-unit count; 0
	// means unbounded. Checked before dispatching each start, once a worker
	// is idle, so the total may overshoot by up to Workers in-flight starts;
	// with one worker the cutoff is schedule-independent.
	WorkBudget int64
	// MaxRetries is how many times a panicking or verification-failing start
	// is retried with a reseeded generator before being recorded as failed.
	MaxRetries int
	// Verify, when non-nil, is applied to every completed outcome; an error
	// fails the attempt (and triggers a retry if any remain). Use
	// VerifyOutcome for the standard invariant checks.
	Verify func(Outcome) error
	// Checkpoint, when non-nil, journals every completed start and seeds the
	// run with the starts already journaled (see OpenCheckpoint).
	Checkpoint *Checkpoint
	// AbandonGrace bounds how long a cancelled run waits for in-flight
	// starts to finish; 0 means wait indefinitely (in-flight starts always
	// complete, the pre-existing behavior). Go cannot kill a goroutine, so
	// when the grace expires the run returns with Abandoned set and the
	// stuck starts' goroutines are left behind: they drain harmlessly into
	// a buffered channel, and if they ever do complete, their results still
	// reach the checkpoint journal — which is exactly what lets a watchdog
	// requeue a wedged job and have the resume pick up any late finishers.
	AbandonGrace time.Duration
}

// RunReport is the full result of a RunMultistart: per-start results in
// start order plus aggregate bookkeeping. A report with Incomplete set still
// carries every outcome that did complete — partial results are first-class,
// per the harness's design.
type RunReport struct {
	// Results holds one entry per start, in start order.
	Results []StartResult
	// Best is the best successful outcome (lowest cut, ties to the lowest
	// start index). Its P is non-nil only if the best start ran this session
	// (a resumed best has no partition). Zero when no start succeeded.
	Best Outcome
	// BestIdx is the start index of Best, or -1 when no start succeeded.
	BestIdx int
	// Completed, Failed, Skipped and Resumed count starts by fate; Resumed
	// starts are also counted under Completed or Failed.
	Completed, Failed, Skipped, Resumed int
	// Incomplete reports that not every start ran (cancellation or budget).
	Incomplete bool
	// Abandoned reports that the run stopped waiting on in-flight starts
	// after cancellation (see RunOptions.AbandonGrace). Abandoned starts
	// are counted under Skipped.
	Abandoned bool
	// Reason explains Incomplete: "cancelled", "wall-clock budget
	// exhausted" or "work budget exhausted". Empty when complete.
	Reason string
	// JournalErr is the checkpoint journal's first write error, surfaced
	// here so callers of a checkpointed run cannot forget to check whether
	// the journal is trustworthy for a future resume. Nil when no
	// checkpoint was configured or every record landed durably.
	JournalErr error
	// TotalWork is the cumulative work-unit count over completed starts
	// (including resumed ones).
	TotalWork int64
	// Elapsed is the harness's wall-clock time for this session.
	Elapsed time.Duration
}

// Outcomes returns the outcomes of the successful starts in start order:
// the samples that min/average statistics and best-so-far curves are built
// from. Only the best start's outcome keeps its partition.
func (r *RunReport) Outcomes() []Outcome {
	out := make([]Outcome, 0, r.Completed)
	for _, sr := range r.Results {
		if sr.Status == StartOK {
			out = append(out, sr.Outcome)
		}
	}
	return out
}

// Summary renders the aggregate statistics — min and mean cut over
// successful starts plus status counts — in a stable format, so a
// checkpointed-and-resumed run can be compared byte-for-byte against an
// uninterrupted one.
func (r *RunReport) Summary() string {
	minCut, sum, n := int64(0), int64(0), 0
	for _, sr := range r.Results {
		if sr.Status != StartOK {
			continue
		}
		if n == 0 || sr.Outcome.Cut < minCut {
			minCut = sr.Outcome.Cut
		}
		sum += sr.Outcome.Cut
		n++
	}
	avg := "-"
	mn := "-"
	if n > 0 {
		mn = fmt.Sprintf("%d", minCut)
		avg = fmt.Sprintf("%.3f", float64(sum)/float64(n))
	}
	s := fmt.Sprintf("starts=%d ok=%d failed=%d skipped=%d min=%s avg=%s work=%d",
		len(r.Results), r.Completed, r.Failed, r.Skipped, mn, avg, r.TotalWork)
	if r.Incomplete {
		s += " incomplete=" + r.Reason
	}
	return s
}

// attemptSeed derives the deterministic seed for a retry attempt: attempt 0
// reproduces the plain rng.Split discipline, later attempts reseed with a
// SplitMix64-style odd-constant mix so retried starts explore fresh
// randomness without consulting any shared state.
func attemptSeed(startSeed uint64, attempt int) uint64 {
	return startSeed + uint64(attempt)*gamma
}

// gamma is the SplitMix64 odd constant. It offsets retry seeds (attemptSeed)
// and the polish seed (Finish) from the start seeds.
const gamma = 0x9e3779b97f4a7c15

// VerifyOutcome returns the standard per-start verifier: the outcome must
// carry a partition whose incremental state survives a from-scratch
// recomputation (core.VerifyPartition), satisfy the balance constraint, and
// report the cut its partition actually has. Fault-injection tests use it to
// prove that silently corrupted starts are caught and recorded as failures.
func VerifyOutcome(bal partition.Balance) func(Outcome) error {
	return func(o Outcome) error {
		if o.P == nil {
			return fmt.Errorf("eval: outcome carries no partition")
		}
		if err := core.VerifyPartition(o.P, bal); err != nil {
			return err
		}
		if o.Cut != o.P.Cut() {
			return &core.InvariantViolation{Kind: "cut",
				Detail: fmt.Sprintf("outcome reports cut %d but partition has %d", o.Cut, o.P.Cut())}
		}
		return nil
	}
}

// RunMultistart runs n independent starts of the heuristic produced by
// factory across worker goroutines, under ctx and the budgets, retry policy,
// verification and checkpointing of opt. factory is called once per worker
// (and again after a failed attempt, since a panic may leave engine scratch
// state corrupted); it must be safe to call from multiple goroutines and
// each returned Heuristic is used by one goroutine at a time.
//
// Panics inside a start are recovered and recorded as failed results; they
// never abort sibling starts. Cancellation and exhausted budgets stop
// dispatching new starts but let in-flight starts finish, and the report
// marks the run Incomplete with the reason. All partitions except the best
// successful start's are dropped to bound memory.
func RunMultistart(ctx context.Context, factory func() Heuristic, n int, seed uint64, opt RunOptions) *RunReport {
	return runStarts(ctx, factory, startSeeds(rng.New(seed), n), opt)
}

// Multistart is the sequential form of RunMultistart used by the experiment
// drivers: n starts of h on one worker, start i seeded with the i-th draw
// from r (the same seed r.Split() would give it), with verify (optional)
// rejecting corrupt outcomes. It draws exactly n values from r whether or
// not ctx cancels the sweep, so a caller's later draws do not depend on how
// far the sweep got.
func Multistart(ctx context.Context, h Heuristic, n int, r *rng.RNG, verify func(Outcome) error) *RunReport {
	return runStarts(ctx, func() Heuristic { return h }, startSeeds(r, n), RunOptions{Workers: 1, Verify: verify})
}

// startSeeds draws one seed per start from root, so every start's outcome
// is fixed before any start runs, whatever the schedule.
func startSeeds(root *rng.RNG, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	return seeds
}

// runStarts is the one multistart loop: start i runs from startSeeds[i].
func runStarts(ctx context.Context, factory func() Heuristic, startSeeds []uint64, opt RunOptions) *RunReport {
	t0 := time.Now() //hglint:ignore detrand wall clock feeds the report's Elapsed only, never the search
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(startSeeds)
	rep := &RunReport{Results: make([]StartResult, n), BestIdx: -1}
	if n == 0 {
		rep.Elapsed = time.Since(t0) //hglint:ignore detrand wall clock feeds the report's Elapsed only, never the search
		return rep
	}
	parent := ctx
	if opt.WallBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.WallBudget)
		defer cancel()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	for i := range rep.Results {
		rep.Results[i] = StartResult{Start: i, Status: StartSkipped}
	}
	// Seed from the checkpoint journal: already-completed starts are never
	// re-dispatched, so a resumed experiment reproduces the uninterrupted
	// run's aggregate statistics exactly.
	if opt.Checkpoint != nil {
		for i := 0; i < n; i++ {
			if sr, ok := opt.Checkpoint.Completed(i); ok {
				rep.Results[i] = sr
			}
		}
	}

	// Workers never touch rep.Results directly: results flow back over a
	// buffered channel the collector below owns. The buffer holds every
	// dispatched start, so a worker's send can never block — which is what
	// makes abandonment safe: a stuck start's goroutine, once it finally
	// finishes, drains into the buffer (and journals itself) instead of
	// writing into a report the caller has long since consumed.
	var totalWork atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	resc := make(chan StartResult, n)
	// A worker posts a token on idle before each receive from next; each
	// worker holds at most one outstanding token, so posting never blocks.
	idle := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := factory()
			for {
				idle <- struct{}{}
				i, ok := <-next
				if !ok {
					return
				}
				sr := runStart(&h, factory, i, startSeeds[i], opt)
				totalWork.Add(sr.Outcome.Work)
				if opt.Checkpoint != nil {
					// A journaling error must not lose the computed result;
					// it is surfaced via Checkpoint.Err after the run.
					opt.Checkpoint.record(sr)
				}
				resc <- sr
			}
		}()
	}

	reason := ""
	dispatched := 0
	for i := 0; i < n; i++ {
		if rep.Results[i].Resumed {
			continue
		}
		// Wait for an idle worker before consulting the work budget, so the
		// check sees the work of every start that worker has finished. A
		// start never begins once ctx is done, even if a worker was idle at
		// the same moment, so an already-cancelled run starts nothing.
		select {
		case <-idle:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			if parent.Err() != nil {
				reason = "cancelled"
			} else {
				reason = "wall-clock budget exhausted"
			}
			break
		}
		if opt.WorkBudget > 0 && totalWork.Load() >= opt.WorkBudget {
			reason = "work budget exhausted"
			break
		}
		next <- i // the idle worker is parked on this receive
		dispatched++
	}
	close(next)

	// Collect every dispatched result. With no AbandonGrace this waits as
	// long as it takes (in-flight starts always complete); with one, a
	// cancelled run stops waiting once the grace expires after cancellation
	// and reports the stragglers as skipped.
	ctxDone := ctx.Done()
	var graceTimer *time.Timer
	var graceC <-chan time.Time
	for collected := 0; collected < dispatched; {
		select {
		case sr := <-resc:
			rep.Results[sr.Start] = sr
			collected++
		case <-ctxDone:
			ctxDone = nil
			if opt.AbandonGrace > 0 {
				graceTimer = time.NewTimer(opt.AbandonGrace) //hglint:ignore detrand watchdog grace timer, never feeds the search
				graceC = graceTimer.C
			}
		case <-graceC:
			rep.Abandoned = true
		}
		if rep.Abandoned {
			break
		}
	}
	if graceTimer != nil {
		graceTimer.Stop()
	}
	if !rep.Abandoned {
		wg.Wait()
	}

	for _, sr := range rep.Results {
		switch sr.Status {
		case StartOK:
			rep.Completed++
			if sr.Resumed {
				rep.Resumed++
			}
			if rep.BestIdx < 0 || sr.Outcome.Cut < rep.Best.Cut {
				rep.Best = sr.Outcome
				rep.BestIdx = sr.Start
			}
		case StartFailed:
			rep.Failed++
			if sr.Resumed {
				rep.Resumed++
			}
		case StartSkipped:
			rep.Skipped++
		}
	}
	// TotalWork is summed from the sealed report itself — resumed starts
	// included: their work units are part of the experiment's cost even
	// though this session did not spend them. The dispatch-time atomic is
	// deliberately not read here: an abandoned straggler could still bump
	// it after the report is returned.
	var work int64
	for _, sr := range rep.Results {
		work += sr.Outcome.Work
	}
	rep.TotalWork = work
	// Keep only the best partition; per-start partitions would hold the
	// whole multistart's memory live.
	for i := range rep.Results {
		if rep.Results[i].Start != rep.BestIdx {
			rep.Results[i].Outcome.P = nil
		}
	}
	if rep.Skipped > 0 {
		rep.Incomplete = true
		if reason == "" {
			reason = "cancelled"
		}
		rep.Reason = reason
	}
	if opt.Checkpoint != nil {
		rep.JournalErr = opt.Checkpoint.Err()
	}
	rep.Elapsed = time.Since(t0) //hglint:ignore detrand wall clock feeds the report's Elapsed only, never the search
	return rep
}

// runStart executes one start with panic recovery, verification and bounded
// retry-with-reseed. h points to the worker's current heuristic; after any
// failed attempt the heuristic is rebuilt via factory, since a panic may
// have left per-engine scratch state inconsistent.
func runStart(h *Heuristic, factory func() Heuristic, start int, startSeed uint64, opt RunOptions) StartResult {
	sr := StartResult{Start: start}
	for attempt := 0; ; attempt++ {
		sr.Attempts = attempt + 1
		o, err := runAttempt(*h, rng.New(attemptSeed(startSeed, attempt)))
		if err == nil && opt.Verify != nil {
			err = opt.Verify(o)
		}
		if err == nil {
			sr.Status = StartOK
			sr.Outcome = o
			return sr
		}
		*h = factory()
		sr.Err = err
		if attempt >= opt.MaxRetries {
			sr.Status = StartFailed
			return sr
		}
	}
}

// runAttempt runs one attempt, converting a panic into a *PanicError.
func runAttempt(h Heuristic, r *rng.RNG) (o Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return h.Run(r), nil
}

// RerunStart deterministically recomputes start i of an n-start run rooted
// at seed, replaying attempt number attempts (1 for a start that succeeded
// first try, matching StartResult.Attempts). It reproduces the exact
// outcome RunMultistart recorded — partition included — which is how a
// resumed run whose best start lives only in the journal (Outcome.P == nil)
// recovers the partition without redoing the whole sweep.
func RerunStart(factory func() Heuristic, seed uint64, i, attempts int) (Outcome, error) {
	if attempts < 1 {
		attempts = 1
	}
	return runAttempt(factory(), rng.New(attemptSeed(startSeeds(rng.New(seed), i+1)[i], attempts-1)))
}

// Finish is the one finish step of a multistart rooted at seed: it turns
// rep, the report of RunMultistart(ctx, factory, n, seed, opt), into the
// reported result. A best start resumed from a checkpoint journal carries
// no partition, so Finish recomputes exactly that start (RerunStart) and
// checks its cut against the journaled one. It then polishes the best with
// a fresh heuristic from factory, seeded with rng.New(seed ^ gamma), so a
// resumed run reports what the uninterrupted run reports. The returned
// outcome carries the final partition and cut; its Work and Seconds are the
// whole run's cost, every start plus the polish.
func Finish(factory func() Heuristic, seed uint64, rep *RunReport) (Outcome, error) {
	if rep.BestIdx < 0 {
		return Outcome{}, fmt.Errorf("eval: no start succeeded")
	}
	best := rep.Best
	if best.P == nil {
		o, err := RerunStart(factory, seed, rep.BestIdx, rep.Results[rep.BestIdx].Attempts)
		if err != nil {
			return Outcome{}, fmt.Errorf("eval: recompute resumed best start %d: %w", rep.BestIdx, err)
		}
		if o.Cut != best.Cut {
			return Outcome{}, fmt.Errorf("eval: recomputed start %d cut %d != journaled %d (corrupt checkpoint?)",
				rep.BestIdx, o.Cut, best.Cut)
		}
		best.P = o.P
	}
	return polished(factory(), rep, best, rng.New(seed^gamma)), nil
}

// polished applies h's polish step to best (a no-op when best has no
// partition) with generator r, and returns best carrying the cost of the
// whole run: every start of rep plus the polish.
func polished(h Heuristic, rep *RunReport, best Outcome, r *rng.RNG) Outcome {
	best.Work, best.Seconds = rep.TotalWork, 0
	for _, sr := range rep.Results {
		best.Seconds += sr.Outcome.Seconds
	}
	if polish := h.PolishBest(best.P, r); polish.P != nil {
		best.Cut = polish.Cut
		best.Work += polish.Work
		best.Seconds += polish.Seconds
	}
	return best
}
