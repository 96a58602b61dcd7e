package experiments

import (
	"fmt"
	"time"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/report"
	"hgpart/internal/rng"
	"hgpart/internal/stats"
)

// idleLimits are the early-exit limits TableIdleFrontier compares; -1 is the
// paper's full pass, the reference every other limit is paired against.
var idleLimits = [...]int{500, 1000, 2000, 4000, -1}

// TableIdleFrontier judges the early-exit limit of multilevel refinement
// passes (core.Config.MaxIdleMoves) the way the paper asks a changed
// implementation decision to be judged: per limit, the mean cut of o.Runs
// bisections, a paired Wilcoxon signed-rank test against the full pass on
// the same seeds, and the cost of one bisection. A bisection is what hgpart
// and hgserved run by default: 4 multilevel starts on one worker, then one
// V-cycle on the best, refined by strong FM (the default) or strong CLIP,
// at the given balance tolerance.
// Every limit runs in turn on each seed, so host drift spreads evenly over
// them. The median wall time (ms) is the table's only measured,
// nondeterministic column; normalized seconds count work units.
func TableIdleFrontier(o Options, tolerance float64) *report.Table {
	o = o.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("Idle-move limit frontier: ML bisections (4 starts + V-cycle, 1 worker), %d seeds, %g%% tolerance (scale %.2g)", o.Runs, tolerance*100, o.Scale),
		"Instance", "Engine", "Limit", "AvgCut", "Better/Worse", "p (Wilcoxon)", "Norm. sec", "ms/bisection")
	mcnc, err := gen.MCNCProfile("struct")
	if err != nil {
		panic(err)
	}
	for _, spec := range []gen.Spec{gen.MustIBMProfile(1), gen.MustIBMProfile(3), mcnc} {
		h := gen.MustGenerate(gen.Instance(spec, o.Scale, 0))
		bal := partition.NewBalance(h.TotalVertexWeight(), tolerance)
		for _, clip := range []bool{false, true} {
			idleFrontierRows(o, t, h, bal, clip)
		}
	}
	return t
}

// idleFrontierRows adds one instance's rows for FM (clip false) or CLIP
// refinement.
func idleFrontierRows(o Options, t *report.Table, h *hypergraph.Hypergraph, bal partition.Balance, clip bool) {
	engine := "ML LIFO"
	if clip {
		engine = "ML CLIP"
	}
	cuts := make([][]float64, len(idleLimits))
	secs := make([][]float64, len(idleLimits))
	ms := make([][]float64, len(idleLimits))
	seeds := rng.New(o.Seed + 1000)
seeds:
	for i := 0; i < o.Runs; i++ {
		seed := seeds.Uint64()
		var cut, sec, wall [len(idleLimits)]float64
		for li, limit := range idleLimits {
			if o.ctx().Err() != nil {
				break seeds // a seed counts only with every limit's pair
			}
			cfg := core.StrongConfig(clip)
			cfg.MaxIdleMoves = limit
			factory := func() eval.Heuristic {
				return eval.NewML("ML", h, multilevel.Config{Refine: o.debug(cfg)}, bal, 1)
			}
			t0 := time.Now()
			rep := eval.RunMultistart(o.ctx(), factory, 4, seed, eval.RunOptions{Workers: 1, Verify: eval.VerifyOutcome(bal)})
			if rep.Completed != 4 {
				break seeds
			}
			best, err := eval.Finish(factory, seed, rep)
			if err != nil {
				panic(err) // every start completed and verified
			}
			cut[li], sec[li], wall[li] = float64(best.Cut), best.NormalizedSeconds(), float64(time.Since(t0).Microseconds())/1000
		}
		for li := range idleLimits {
			cuts[li] = append(cuts[li], cut[li])
			secs[li] = append(secs[li], sec[li])
			ms[li] = append(ms[li], wall[li])
		}
	}
	full := len(idleLimits) - 1
	for li, limit := range idleLimits {
		name := "full pass"
		if limit > 0 {
			name = fmt.Sprint(limit)
		}
		if len(cuts[li]) == 0 {
			t.AddRow(h.Name, engine, name, cancelledCell, cancelledCell, cancelledCell, cancelledCell, cancelledCell)
			continue
		}
		vs, p := "-", "-"
		if li != full {
			var better, worse int
			for i, c := range cuts[li] {
				if c < cuts[full][i] {
					better++
				} else if c > cuts[full][i] {
					worse++
				}
			}
			res, err := stats.WilcoxonSignedRank(cuts[li], cuts[full])
			if err != nil {
				panic(err)
			}
			vs, p = fmt.Sprintf("%d/%d", better, worse), fmt.Sprintf("%.3f", res.P)
		}
		t.AddRow(h.Name, engine, name, fmt.Sprintf("%.1f", stats.Mean(cuts[li])), vs, p,
			fmt.Sprintf("%.3f", stats.Mean(secs[li])), fmt.Sprintf("%.0f", stats.Summarize(ms[li]).Median))
	}
}
