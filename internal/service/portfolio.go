package service

import (
	"context"
	"errors"

	"hgpart/internal/partition"
	"hgpart/internal/portfolio"
)

// portfolioPlan is the mode=portfolio pre-phase: race the curated arm
// portfolio for the first slice of the request's work budget, then hand the
// shared lifecycle the winning arm to commit the remainder to, with the
// race's polished best as the fallback the commit must beat. The report is a
// pure function of (instance, starts, tolerance, seed, work budget), so a
// restart or a different cluster topology cannot change a byte. ctx carries
// the job's wall deadline; an expiry here (budget far too small to race at
// all) is an error, reported as 422. See DESIGN.md §15.
func (m *Manager) portfolioPlan(ctx context.Context, j *Job, bal partition.Balance) (*jobPlan, error) {
	sched := &portfolio.Scheduler{Progress: func(string, int64) { j.beat() }}
	race, err := sched.Race(ctx, j.inst, bal, j.req.Seed, portfolio.RaceBudget(j.req.WorkBudget))
	switch {
	case errors.Is(err, portfolio.ErrInfeasible):
		return nil, errors.New("portfolio race found no legal partition (tolerance may be infeasible)")
	case errors.Is(err, context.DeadlineExceeded):
		return nil, errors.New("wall budget expired during the portfolio race; raise wall_budget_ms")
	case err != nil:
		return nil, err
	}
	arm := race.Arms[race.Winner]
	m.metrics.PortfolioRace(race.Bucket.Key(), arm.Name)
	m.log.Info("portfolio race", "job", j.ID, "bucket", race.Bucket.Key(),
		"winner", arm.Name, "race_work", race.RaceWork)

	cseed := portfolio.CommitSeed(j.req.Seed)
	return &jobPlan{
		raw:        arm.Factory(j.inst, bal, cseed),
		seed:       cseed,
		workBudget: portfolio.CommitBudget(j.req.WorkBudget, race.RaceWork),
		spent:      race.RaceWork,
		fallback:   &race.Best,
		engine:     "portfolio",
		vcycles:    arm.VCycles,
		portfolio: &PortfolioReport{
			Bucket:   race.Bucket.Key(),
			Arms:     race.Traces,
			Winner:   arm.Name,
			RaceWork: race.RaceWork,
		},
	}, nil
}
