package experiments

import (
	"context"
	"fmt"

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

// Extra experiments supporting claims the paper makes in prose rather than
// tables:
//
//   - TableCorking quantifies "traces of CLIP executions show that corking
//     actually occurs fairly often, particularly with the more modern
//     ISPD98 actual-area benchmarks" (§2.3) and its absence in unit-area
//     mode ("the older MCNC test cases lack large cells, and have
//     historically been used in unit-area mode").
//   - TableInsertion reproduces the Hagen-Huang-Kahng EDAC'95 comparison of
//     LIFO/FIFO/Random gain-bucket insertion cited in footnote 3 ("inserting
//     moves into gain buckets in LIFO order is much preferable").
//   - TableSignificance demonstrates the §3.2 recommendation of statistical
//     tests (after Brglez): a Mann-Whitney U test on paired heuristic
//     comparisons, showing which quality gaps are significant and which are
//     chance.

// TableCorking reports corked (zero-move) pass counts and total moves for
// unguarded vs guarded CLIP, on actual-area and unit-area variants of the
// same instances, at 2% tolerance.
func TableCorking(o Options) *report.Table {
	o = o.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("Corking trace: CLIP pass progress over %d runs, 2%% tolerance (scale %.2g)", o.Runs, o.Scale),
		"Instance", "Areas", "Guard", "CorkEvents", "Passes", "Moves/Pass", "AvgCut")

	root := rng.New(o.Seed + 500)
	for _, inst := range []int{1, 2} {
		for _, unit := range []bool{false, true} {
			spec := gen.Instance(gen.MustIBMProfile(inst), o.Scale, 0)
			spec.UnitArea = unit
			areas := "actual"
			if unit {
				areas = "unit"
				spec.Name += "-unit"
			}
			h := gen.MustGenerate(spec)
			bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
			for _, guard := range []bool{false, true} {
				cfg := core.StrongConfig(true)
				cfg.CorkGuard = guard
				eng := core.NewEngine(h, cfg, bal, root.Split())
				r := root.Split()
				var passes int
				var corks, moves, cutSum int64
				done := 0
				for i := 0; i < o.Runs; i++ {
					if o.ctx().Err() != nil {
						break
					}
					p := partition.New(h)
					p.RandomBalanced(r.Split(), bal)
					res := eng.Run(p)
					passes += res.Passes
					corks += res.CorkEvents
					moves += res.Moves
					cutSum += res.Cut
					done++
				}
				if done < o.Runs {
					t.AddRow(fmt.Sprintf("ibm%02d", inst), areas, fmt.Sprint(guard),
						cancelledCell, cancelledCell, cancelledCell, cancelledCell)
					continue
				}
				movesPerPass := 0.0
				if passes > 0 {
					movesPerPass = float64(moves) / float64(passes)
				}
				t.AddRow(
					fmt.Sprintf("ibm%02d", inst), areas, fmt.Sprint(guard),
					fmt.Sprint(corks), fmt.Sprint(passes),
					fmt.Sprintf("%.0f", movesPerPass),
					fmt.Sprintf("%.1f", float64(cutSum)/float64(o.Runs)))
			}
		}
	}
	return t
}

// TableInsertion compares LIFO, FIFO and Random gain-bucket insertion for a
// tuned flat FM, min/avg cut over Options.Runs single starts.
func TableInsertion(o Options) *report.Table {
	o = o.withDefaults()
	instances := []int{1, 2, 3}
	t := report.NewTable(
		fmt.Sprintf("Insertion-order study (Hagen-Huang-Kahng): min/avg over %d runs, 2%% tolerance (scale %.2g)", o.Runs, o.Scale),
		"Insertion", "ibm01", "ibm02", "ibm03")

	hs := make([]*hypergraph.Hypergraph, len(instances))
	for i, inst := range instances {
		hs[i] = o.instance(inst)
	}
	root := rng.New(o.Seed + 600)
	for _, ins := range []core.InsertionOrder{core.LIFO, core.FIFO, core.RandomOrder} {
		cfg := core.StrongConfig(false)
		cfg.Insertion = ins
		cells := make([]string, 0, len(instances))
		for _, h := range hs {
			bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
			heur := eval.NewFlat(ins.String(), h, o.debug(cfg), bal, root.Split())
			cells = append(cells, o.minAvgCell(heur, bal, o.Runs, root.Split()))
		}
		t.AddRow(append([]string{ins.String()}, cells...)...)
	}
	return t
}

// TableSignificance runs two heuristic pairs on ibm01 and reports
// Mann-Whitney U p-values: a pair with a real quality gap (naive vs tuned)
// and a pair that differs only by a minor knob (Away vs Toward bias), whose
// gap is typically not significant — the paper's point that experiments
// must distinguish improvement from chance.
func TableSignificance(o Options) *report.Table {
	o = o.withDefaults()
	h := o.instance(1)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	root := rng.New(o.Seed + 700)

	cuts := func(cfg core.Config) []float64 {
		heur := eval.NewFlat(cfg.String(), h, cfg, bal, root.Split())
		samples := eval.Multistart(context.Background(), heur, o.Runs, root.Split(), nil).Outcomes()
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = float64(s.Cut)
		}
		return out
	}

	t := report.NewTable(
		fmt.Sprintf("Significance of pairwise comparisons (Mann-Whitney U, %d runs each, %s)", o.Runs, h.Name),
		"Comparison", "MeanA", "MeanB", "U", "Z", "p", "Significant@0.05")

	addPair := func(name string, a, b []float64) {
		res, err := stats.MannWhitneyU(a, b)
		if err != nil {
			panic(err)
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", stats.Mean(a)),
			fmt.Sprintf("%.1f", stats.Mean(b)),
			fmt.Sprintf("%.0f", res.Statistic),
			fmt.Sprintf("%.2f", res.Z),
			fmt.Sprintf("%.4f", res.P),
			fmt.Sprint(res.Significant(0.05)))
	}

	naive := cuts(core.NaiveConfig(false))
	strong := cuts(core.StrongConfig(false))
	addPair("Naive vs Tuned LIFO FM", naive, strong)

	away := core.StrongConfig(false)
	away.Bias = core.Away
	toward := core.StrongConfig(false)
	toward.Bias = core.Toward
	addPair("Away vs Toward bias (tuned FM)", cuts(away), cuts(toward))

	return t
}

// TableRegimes contrasts the multistart regimes of §3.2 on the ibm01
// stand-in at 2% tolerance: the traditional best-of-k, the pruned
// multistart (early termination of unpromising starts) and the
// budget-bounded regime, plus the Schreiber-Martin probability that the ML
// engine beats tuned flat FM at a range of budgets.
func TableRegimes(o Options) *report.Table {
	o = o.withDefaults()
	h := o.instance(1)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	root := rng.New(o.Seed + 800)

	t := report.NewTable(
		fmt.Sprintf("Multistart regimes on %s, 2%% tolerance", h.Name),
		"Regime", "Detail", "BestCut", "Cost (norm. sec)")

	// Best-of-k (traditional).
	flat := eval.NewFlat("flat", h, core.StrongConfig(false), bal, root.Split())
	kBest, _, kWork := eval.BestOfK(flat, 8, root.Split())
	t.AddRow("best-of-k", "flat FM, k=8",
		fmt.Sprint(kBest.Cut), fmt.Sprintf("%.3f", float64(kWork)/eval.WorkUnitsPerSecond))

	// Pruned multistart: same start count, tighter total cost.
	pBest, _, pruned := eval.PrunedMultistart(o.ctx(), h, core.StrongConfig(false), bal, 8, 1, 1.15, root.Split())
	t.AddRow("pruned", fmt.Sprintf("flat FM, k=8, %d pruned", pruned),
		fmt.Sprint(pBest.Cut), fmt.Sprintf("%.3f", float64(pBest.Work)/eval.WorkUnitsPerSecond))

	// Budget-bounded: whatever fits in the cost of ~4 ML starts.
	ml := eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 0)
	one := ml.Run(root.Split())
	budget := 4 * one.NormalizedSeconds()
	bBest, starts, spent := eval.BestWithinBudget(o.ctx(), ml, budget, root.Split())
	t.AddRow("budget", fmt.Sprintf("ML, %d starts in budget", starts),
		fmt.Sprint(bBest.Cut), fmt.Sprintf("%.3f", spent))

	// Schreiber-Martin P(ML best) across budgets.
	flatSamples := eval.Multistart(context.Background(), flat, o.Runs, root.Split(), nil).Outcomes()
	mlSamples := eval.Multistart(context.Background(), ml, o.Runs, root.Split(), nil).Outcomes()
	for _, mult := range []float64{1, 4, 16} {
		tau := one.NormalizedSeconds() * mult
		p := eval.ProbBest(mlSamples, flatSamples, tau, true)
		t.AddRow("P(ML beats flat)", fmt.Sprintf("budget %.3fs", tau),
			fmt.Sprintf("%.2f", p), "-")
	}
	return t
}

// TableBenchmarkEra makes the paper's §2.3 "incomplete set of data"
// argument measurable: the same implementation defect (no corking guard)
// is scored on an old-era MCNC-like unit-area instance and a modern
// ISPD98-like actual-area instance. The defect is invisible on the former
// and catastrophic on the latter — "the fact that CLIP corking was not
// previously realized is due to testing of algorithms on an incomplete set
// of data".
func TableBenchmarkEra(o Options) *report.Table {
	o = o.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("Benchmark era and defect visibility: unguarded/guarded CLIP avg cut, %d runs, 2%% tolerance", o.Runs),
		"Suite", "Instance", "Unguarded", "Guarded", "Penalty")

	type inst struct {
		suite string
		h     *hypergraph.Hypergraph
	}
	var instances []inst
	// MCNC instances are small; run them at double scale (gen.Instance
	// keeps a scale of 1 or more at full size).
	for _, name := range []string{"prim2", "avqsmall"} {
		spec, err := gen.MCNCProfile(name)
		if err != nil {
			panic(err)
		}
		instances = append(instances, inst{"MCNC", gen.MustGenerate(gen.Instance(spec, o.Scale*2, 0))})
	}
	for _, id := range []int{1, 2} {
		instances = append(instances, inst{"ISPD98", gen.MustGenerate(gen.Instance(gen.MustIBMProfile(id), o.Scale, 0))})
	}

	root := rng.New(o.Seed + 900)
	for _, in := range instances {
		bal := partition.NewBalance(in.h.TotalVertexWeight(), 0.02)
		avg := func(guard bool) (float64, bool) {
			cfg := core.StrongConfig(true)
			cfg.CorkGuard = guard
			eng := core.NewEngine(in.h, cfg, bal, root.Split())
			r := root.Split()
			var sum int64
			done := 0
			for i := 0; i < o.Runs; i++ {
				if o.ctx().Err() != nil {
					break
				}
				p := partition.New(in.h)
				p.RandomBalanced(r.Split(), bal)
				sum += eng.Run(p).Cut
				done++
			}
			if done < o.Runs {
				return 0, false
			}
			return float64(sum) / float64(o.Runs), true
		}
		un, unOK := avg(false)
		gu, guOK := avg(true)
		if !unOK || !guOK {
			t.AddRow(in.suite, in.h.Name, cancelledCell, cancelledCell, cancelledCell)
			continue
		}
		t.AddRow(in.suite, in.h.Name,
			fmt.Sprintf("%.1f", un), fmt.Sprintf("%.1f", gu),
			fmt.Sprintf("%.2fx", un/gu))
	}
	return t
}
