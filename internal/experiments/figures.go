package experiments

import (
	"fmt"
	"math"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/multilevel"
	"hgpart/internal/partition"
	"hgpart/internal/plot"
	"hgpart/internal/report"
	"hgpart/internal/rng"
)

// The paper contains no numbered figures, but §3.2 prescribes three
// reporting artifacts any methodology-faithful evaluation should produce.
// We label them Figures A-C:
//
//	Figure A — best-so-far (BSF) curves (Barr et al.): expected best cut
//	           versus CPU budget for each heuristic;
//	Figure B — the non-dominated (cost, runtime) frontier (Pareto set) of
//	           heuristic configurations;
//	Figure C — a speed-dependent ranking diagram (Schreiber & Martin):
//	           the winning heuristic per (instance size, CPU budget) cell.

// figureHeuristics builds the three heuristics compared in the figures on
// hypergraph h: tuned flat LIFO FM, tuned flat CLIP FM, and the multilevel
// partitioner.
func figureHeuristics(h *hypergraph.Hypergraph, tol float64, r *rng.RNG) []eval.Heuristic {
	bal := partition.NewBalance(h.TotalVertexWeight(), tol)
	return []eval.Heuristic{
		eval.NewFlat("flat-LIFO", h, core.StrongConfig(false), bal, r.Split()),
		eval.NewFlat("flat-CLIP", h, core.StrongConfig(true), bal, r.Split()),
		eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 0),
	}
}

// FigureBSF computes Figure A on the ibm01-like instance at 2% tolerance:
// for each heuristic, Options.Runs single starts are sampled and the
// expected best cut under a range of normalized CPU budgets is reported.
func FigureBSF(o Options) *report.Table {
	o = o.withDefaults()
	h := o.instance(1)
	root := rng.New(o.Seed + 100)
	heuristics := figureHeuristics(h, 0.02, root)

	sampleSets := make([][]eval.Outcome, len(heuristics))
	var maxMean float64
	for i, heur := range heuristics {
		samples := o.samples(heur, o.Runs, root.Split())
		sampleSets[i] = samples
		if len(samples) == 0 {
			continue
		}
		var mean float64
		for _, s := range samples {
			mean += s.NormalizedSeconds()
		}
		mean /= float64(len(samples))
		if mean > maxMean {
			maxMean = mean
		}
	}
	// Budgets: log-spaced from a fraction of the slowest heuristic's
	// single-start time to enough for ~32 of its starts.
	budgets := make([]float64, 0, 12)
	for b := maxMean / 8; b <= maxMean*32; b *= 2 {
		budgets = append(budgets, b)
	}

	headers := []string{"Budget (norm. sec)"}
	for _, heur := range heuristics {
		headers = append(headers, heur.Name()+" E[best] (starts)")
	}
	t := report.NewTable(
		fmt.Sprintf("Figure A: best-so-far curves, %s, 2%% tolerance, %d samples/heuristic", h.Name, o.Runs),
		headers...)
	curves := make([][]eval.BSFPoint, len(heuristics))
	for i := range heuristics {
		curves[i] = eval.BSFCurve(sampleSets[i], budgets, true)
	}
	for bi, tau := range budgets {
		row := []string{fmt.Sprintf("%.3f", tau)}
		for i := range heuristics {
			p := curves[i][bi]
			if math.IsInf(p.ExpectedBest, 1) {
				row = append(row, "- (0)")
			} else {
				row = append(row, fmt.Sprintf("%.1f (%d)", p.ExpectedBest, p.Starts))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// FigurePareto computes Figure B: the (cost, runtime) performance points of
// multistart configurations of each heuristic on ibm01-03, and whether each
// point lies on the non-dominated frontier.
func FigurePareto(o Options) *report.Table {
	o = o.withDefaults()
	root := rng.New(o.Seed + 200)
	t := report.NewTable(
		fmt.Sprintf("Figure B: non-dominated (cost, runtime) frontier, 2%% tolerance (scale %.2g)", o.Scale),
		"Instance", "Configuration", "AvgBestCut", "NormSec", "OnFrontier")

	startCounts := []int{1, 4, 16}
	for _, inst := range []int{1, 2, 3} {
		h := o.instance(inst)
		heuristics := figureHeuristics(h, 0.02, root)
		var points []eval.PerfPoint
		for _, heur := range heuristics {
			cps, _ := eval.EvaluateConfigurationsCtx(o.ctx(), heur, startCounts, maxI(2, o.Reps), root.Split())
			for _, cp := range cps {
				points = append(points, eval.PerfPoint{
					Label:   fmt.Sprintf("%s x%d", heur.Name(), cp.Starts),
					Cost:    cp.AvgBestCut,
					Seconds: cp.AvgNormalizedSecs,
				})
			}
		}
		front := eval.ParetoFrontier(points)
		onFront := make(map[string]bool, len(front))
		for _, p := range front {
			onFront[p.Label] = true
		}
		for _, p := range points {
			mark := ""
			if onFront[p.Label] {
				mark = "*"
			}
			t.AddRow(h.Name, p.Label, fmt.Sprintf("%.1f", p.Cost), fmt.Sprintf("%.3f", p.Seconds), mark)
		}
	}
	return t
}

// FigureRanking computes Figure C: for instances of several sizes and a
// grid of CPU budgets, the heuristic with the best expected BSF cut — the
// paper's "(instance size, CPU time) dominance" diagnostic.
func FigureRanking(o Options) *report.Table {
	o = o.withDefaults()
	root := rng.New(o.Seed + 300)

	sizes := []float64{0.25, 0.5, 1.0} // fractions of the scaled ibm01
	samplesBySize := map[int]map[string][]eval.Outcome{}
	var budgets []float64
	for _, f := range sizes {
		spec := gen.Instance(gen.MustIBMProfile(1), o.Scale*f, 0)
		h := gen.MustGenerate(spec)
		heuristics := figureHeuristics(h, 0.02, root)
		bySz := map[string][]eval.Outcome{}
		for _, heur := range heuristics {
			samples := o.samples(heur, maxI(10, o.Runs/2), root.Split())
			bySz[heur.Name()] = samples
			if f == sizes[len(sizes)-1] && heur.Name() == "ML" && len(samples) > 0 {
				var mean float64
				for _, s := range samples {
					mean += s.NormalizedSeconds()
				}
				mean /= float64(len(samples))
				for b := mean / 16; b <= mean*16; b *= 4 {
					budgets = append(budgets, b)
				}
			}
		}
		samplesBySize[h.NumVertices()] = bySz
	}
	cells := eval.RankingDiagram(samplesBySize, budgets, true)

	t := report.NewTable(
		fmt.Sprintf("Figure C: speed-dependent ranking (winner per instance-size x budget cell), scale %.2g", o.Scale),
		"Vertices", "Budget (norm. sec)", "Winner", "E[best] flat-LIFO", "E[best] flat-CLIP", "E[best] ML")
	fmtE := func(v float64) string {
		if math.IsInf(v, 1) {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, c := range cells {
		t.AddRow(
			fmt.Sprintf("%d", c.InstanceSize),
			fmt.Sprintf("%.3f", c.Budget),
			c.Winner,
			fmtE(c.Expected["flat-LIFO"]),
			fmtE(c.Expected["flat-CLIP"]),
			fmtE(c.Expected["ML"]),
		)
	}
	return t
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FigureBSFChart renders the Figure A comparison as an ASCII chart
// (expected best cut vs log CPU budget) — the visual form the paper's §3.2
// recommends for communicating quality-runtime tradeoffs.
func FigureBSFChart(o Options) string {
	o = o.withDefaults()
	h := o.instance(1)
	root := rng.New(o.Seed + 100)
	heuristics := figureHeuristics(h, 0.02, root)

	chart := plot.Chart{
		Title:  fmt.Sprintf("Figure A: best-so-far curves, %s, 2%% tolerance", h.Name),
		XLabel: "normalized CPU seconds (log)",
		LogX:   true,
		Width:  72,
		Height: 22,
	}
	for _, heur := range heuristics {
		samples := o.samples(heur, o.Runs, root.Split())
		if len(samples) == 0 {
			continue
		}
		var mean float64
		for _, s := range samples {
			mean += s.NormalizedSeconds()
		}
		mean /= float64(len(samples))
		var budgets []float64
		for b := mean; b <= mean*64; b *= 2 {
			budgets = append(budgets, b)
		}
		pts := eval.BSFCurve(samples, budgets, true)
		var xs, ys []float64
		for _, p := range pts {
			if math.IsInf(p.ExpectedBest, 1) {
				continue
			}
			xs = append(xs, p.Budget)
			ys = append(ys, p.ExpectedBest)
		}
		chart.Add(plot.Series{Name: heur.Name(), X: xs, Y: ys})
	}
	return chart.Render()
}
