package portfolio

import (
	"context"
	"errors"
	"fmt"

	"hgpart/internal/eval"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// goldenGamma is the repo's standard SplitMix64 odd constant, used here to
// derive per-arm and commit-phase seeds from the request seed.
const goldenGamma = 0x9e3779b97f4a7c15

// commitSalt separates the commit phase's seed space from the race's (and
// from the fixed-default engine's plain request seed): "portfoli" in ASCII.
const commitSalt = 0x706f7274666f6c69

// ErrInfeasible reports that no arm produced a legal partition during the
// race — the balance constraint cannot be met (the portfolio analogue of the
// fixed engines' infeasible-tolerance failure).
var ErrInfeasible = errors.New("portfolio: no arm produced a legal partition")

// armSeed derives the deterministic root seed for arm i of a race rooted at
// seed. Arms never share generator state, so adding or re-ordering starts
// within one arm cannot perturb another.
func armSeed(seed uint64, i int) uint64 {
	return seed ^ uint64(i+1)*goldenGamma
}

// CommitSeed derives the commit phase's multistart seed from the request
// seed. It is distinct from every armSeed and from the raw request seed, so
// the commit explores starts the race has not already spent.
func CommitSeed(seed uint64) uint64 { return seed ^ commitSalt }

// ArmTrace is the per-arm outcome of one race, in arm order. It is part of
// the deterministic report surface: every field is a pure function of
// (instance, seed, budget).
type ArmTrace struct {
	// Arm names the arm.
	Arm string `json:"arm"`
	// Starts is how many starts the arm ran during the race.
	Starts int `json:"starts"`
	// Cut is the arm's best legal cut (after the arm's own polish step);
	// meaningful only when OK.
	Cut int64 `json:"cut"`
	// Work is the arm's total deterministic work units, polish included.
	Work int64 `json:"work"`
	// OK reports that at least one start produced a verified legal
	// partition.
	OK bool `json:"ok"`
	// Won marks the winning arm.
	Won bool `json:"won,omitempty"`
}

// RaceResult is the outcome of the racing slice: the extracted features and
// bucket, one trace per arm, and the winning arm's best outcome.
type RaceResult struct {
	Features Features
	Bucket   Bucket
	// Arms is the raced portfolio, in order; Traces is parallel to it.
	Arms   []Arm
	Traces []ArmTrace
	// Winner indexes Arms/Traces; Best is the winner's best outcome (P is
	// non-nil and verified legal).
	Winner int
	Best   eval.Outcome
	// RaceWork is the total work spent racing, across all arms.
	RaceWork int64
}

// Scheduler races a portfolio of arms and selects the winner for a commit.
// The zero value races DefaultArms with one start per arm.
type Scheduler struct {
	// Arms is the portfolio; nil means DefaultArms().
	Arms []Arm
	// RaceStarts is the per-arm start count used when the race has no work
	// budget; <= 0 means 1.
	RaceStarts int
	// Progress, when non-nil, is called after every race start with the arm
	// name and that start's raw cut — a heartbeat hook for watchdogs and
	// live status views. It observes only; it cannot influence the race.
	Progress func(arm string, cut int64)
}

// Race runs the racing slice: every arm runs starts until its share of
// raceWork is spent (raceWork <= 0 means RaceStarts starts per arm; every
// arm always runs at least one start), each arm's best is polished by the
// arm's own polish step, and the winner is the lexicographic minimum of
// (cut, work, arm index) over arms with a legal best. The result is a pure
// function of (h, seed, raceWork): arms run sequentially, each from its own
// derived seed.
//
// A cancelled ctx aborts the race with ctx's error; partial races are never
// returned, so callers cannot commit to a winner chosen under a truncated
// race (which would break determinism).
func (s *Scheduler) Race(ctx context.Context, h *hypergraph.Hypergraph, bal partition.Balance, seed uint64, raceWork int64) (*RaceResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	arms := s.Arms
	if len(arms) == 0 {
		arms = DefaultArms()
	}
	raceStarts := s.RaceStarts
	if raceStarts <= 0 {
		raceStarts = 1
	}
	perArm := int64(0)
	if raceWork > 0 {
		perArm = raceWork / int64(len(arms))
		if perArm < 1 {
			perArm = 1
		}
	}

	res := &RaceResult{
		Features: Extract(h),
		Arms:     arms,
		Traces:   make([]ArmTrace, len(arms)),
		Winner:   -1,
	}
	res.Bucket = BucketOf(res.Features)

	verify := eval.VerifyOutcome(bal)
	bests := make([]eval.Outcome, len(arms))
	for i, arm := range arms {
		r := rng.New(armSeed(seed, i))
		heur := arm.NewHeuristic(h, bal, r.Split())
		tr := ArmTrace{Arm: arm.Name}
		var best eval.Outcome
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o := heur.Run(r.Split())
			tr.Starts++
			tr.Work += o.Work
			if s.Progress != nil {
				s.Progress(arm.Name, o.Cut)
			}
			if verify(o) == nil && (!tr.OK || o.Cut < best.Cut) {
				best = o
				tr.OK = true
			}
			if perArm > 0 {
				if tr.Work >= perArm {
					break
				}
			} else if tr.Starts >= raceStarts {
				break
			}
		}
		if tr.OK {
			// The arm's own polish (V-cycles for the multilevel arm) is part
			// of its race cost and its reported quality, mirroring BestOfK.
			if polish := heur.PolishBest(best.P, r.Split()); polish.P != nil {
				tr.Work += polish.Work
				best.Cut = polish.Cut
			}
			tr.Cut = best.Cut
			bests[i] = best
		}
		res.Traces[i] = tr
		res.RaceWork += tr.Work
	}

	for i, tr := range res.Traces {
		if !tr.OK {
			continue
		}
		if res.Winner < 0 {
			res.Winner = i
			continue
		}
		w := res.Traces[res.Winner]
		if tr.Cut < w.Cut || (tr.Cut == w.Cut && tr.Work < w.Work) {
			res.Winner = i
		}
	}
	if res.Winner < 0 {
		return nil, ErrInfeasible
	}
	res.Traces[res.Winner].Won = true
	res.Best = bests[res.Winner]
	return res, nil
}

// Result is the outcome of a full Run: the race, the commit-phase report,
// and the final polished best across both phases.
type Result struct {
	Race *RaceResult
	// Commit is the commit phase's multistart report (winner arm only).
	Commit *eval.RunReport
	// Final is the overall best outcome (P non-nil, verified legal); Source
	// is "race" or "commit" depending on which phase produced it.
	Final  eval.Outcome
	Source string
	// TotalWork is race + commit + final polish work.
	TotalWork int64
}

// RaceBudget is the racing slice of a schedule's work budget: a quarter of
// it, or 0 (one start per arm) when the schedule is unbudgeted.
func RaceBudget(workBudget int64) int64 {
	if workBudget <= 0 {
		return 0
	}
	return workBudget / 4
}

// CommitBudget is the commit phase's share of workBudget after a race that
// spent raceWork: whatever the race left, but at least 1 so the commit
// always gets one start. 0 (unbounded) when the schedule is unbudgeted.
func CommitBudget(workBudget, raceWork int64) int64 {
	if workBudget <= 0 {
		return 0
	}
	if remaining := workBudget - raceWork; remaining >= 1 {
		return remaining
	}
	return 1
}

// CommitWins is the race-vs-commit final rule: the commit's best becomes the
// final answer when a commit start succeeded and either there is no
// fallback (no race ran) or it strictly beats the fallback. Ties favor the
// fallback, which the race already polished.
func CommitWins(commit *eval.RunReport, fallback *eval.Outcome) bool {
	return commit.BestIdx >= 0 && (fallback == nil || commit.Best.Cut < fallback.Cut)
}

// Run executes the full portfolio schedule: race for RaceBudget(workBudget),
// then commit CommitBudget to the winning arm as an eval.RunMultistart of
// starts starts rooted at CommitSeed(seed). The commit runs on a single
// worker so the work-budget cutoff is schedule-independent, making the whole
// Result a pure function of (h, seed, starts, workBudget) — the property the
// smoke test and the hgbench gate assert byte-for-byte.
//
// When CommitWins, the commit best goes through the harness's finish step
// (eval.Finish: the winning arm's polish, seeded from the commit seed);
// race-sourced bests were already polished during the race.
func (s *Scheduler) Run(ctx context.Context, h *hypergraph.Hypergraph, bal partition.Balance, seed uint64, starts int, workBudget int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	race, err := s.Race(ctx, h, bal, seed, RaceBudget(workBudget))
	if err != nil {
		return nil, err
	}
	arm := race.Arms[race.Winner]

	cseed := CommitSeed(seed)
	factory := arm.Factory(h, bal, cseed)
	rep := eval.RunMultistart(ctx, factory, starts, cseed, eval.RunOptions{
		Workers:    1,
		Verify:     eval.VerifyOutcome(bal),
		WorkBudget: CommitBudget(workBudget, race.RaceWork),
	})

	res := &Result{Race: race, Commit: rep, Final: race.Best, Source: "race",
		TotalWork: race.RaceWork + rep.TotalWork}
	if CommitWins(rep, &race.Best) {
		final, err := eval.Finish(factory, cseed, rep)
		if err != nil {
			return nil, fmt.Errorf("portfolio: commit: %w", err)
		}
		// Final is the best start itself, as with a race-sourced best: its
		// own cost, the polished cut.
		res.Final = eval.Outcome{P: final.P, Cut: final.Cut, Seconds: rep.Best.Seconds, Work: rep.Best.Work}
		res.Source = "commit"
		res.TotalWork = race.RaceWork + final.Work
	}
	return res, nil
}
