// Benchmark harness: one benchmark per table and figure of the paper, plus
// ablation benches for the design choices DESIGN.md calls out.
//
// Table benches measure the unit of work each table is built from (one
// single start, or one best-of-k configuration) on a reduced-scale
// instance, and report the achieved cut as a custom metric so quality and
// runtime appear side by side — exactly the (cost, runtime) pairing the
// paper argues benchmarks must report. Full-size tables are produced by
// cmd/hgeval; EXPERIMENTS.md records paper-vs-measured values.
package hgpart

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/exact"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/kway"
	"hgpart/internal/kwayfm"
	"hgpart/internal/multilevel"
	"hgpart/internal/netlist"
	"hgpart/internal/partition"
	"hgpart/internal/placer"
	"hgpart/internal/rng"
	"hgpart/internal/spectral"
)

// benchScale keeps a single benchmark iteration in the low-millisecond
// range on one core.
const benchScale = 0.08

var (
	benchOnce sync.Once
	benchIBM  map[int]*hypergraph.Hypergraph
)

func benchInstance(b *testing.B, i int) *hypergraph.Hypergraph {
	b.Helper()
	benchOnce.Do(func() {
		benchIBM = map[int]*hypergraph.Hypergraph{}
		for _, id := range []int{1, 2, 3, 14} {
			benchIBM[id] = gen.MustGenerate(gen.Scaled(gen.MustIBMProfile(id), benchScale))
		}
	})
	return benchIBM[i]
}

// reportCut attaches the average achieved cut to the benchmark output.
func reportCut(b *testing.B, totalCut int64) {
	b.Helper()
	if b.N > 0 {
		b.ReportMetric(float64(totalCut)/float64(b.N), "cut/op")
	}
}

// benchFlat measures one single start of a flat configuration per iteration.
func benchFlat(b *testing.B, h *hypergraph.Hypergraph, cfg core.Config, tol float64) {
	b.Helper()
	bal := partition.NewBalance(h.TotalVertexWeight(), tol)
	r := rng.New(2027)
	eng := core.NewEngine(h, cfg, bal, r.Split())
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.New(h)
		p.RandomBalanced(r.Split(), bal)
		total += eng.Run(p).Cut
	}
	reportCut(b, total)
}

// benchML measures one multilevel start per iteration.
func benchML(b *testing.B, h *hypergraph.Hypergraph, cfg multilevel.Config, tol float64) {
	b.Helper()
	bal := partition.NewBalance(h.TotalVertexWeight(), tol)
	ml := multilevel.New(h, cfg, bal)
	r := rng.New(2028)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := ml.Partition(r.Split())
		total += st.Cut
	}
	reportCut(b, total)
}

// BenchmarkTable1 exercises the Table 1 grid: the four engines under the
// best and worst implicit-decision combinations (AllDeltaGain/Part0 vs
// Nonzero/Toward) on the ibm01-like instance at 2% tolerance.
func BenchmarkTable1(b *testing.B) {
	h := benchInstance(b, 1)
	combos := []struct {
		name   string
		update core.UpdatePolicy
		bias   core.Bias
	}{
		{"AllDGain-Part0", core.AllDeltaGain, core.Part0},
		{"Nonzero-Toward", core.NonzeroOnly, core.Toward},
	}
	for _, clip := range []bool{false, true} {
		engine := "LIFO"
		if clip {
			engine = "CLIP"
		}
		for _, cb := range combos {
			cfg := core.Config{
				CLIP: clip, Update: cb.update, Bias: cb.bias,
				Insertion: core.LIFO, CorkGuard: clip,
			}
			b.Run(fmt.Sprintf("Flat-%s/%s", engine, cb.name), func(b *testing.B) {
				benchFlat(b, h, cfg, 0.02)
			})
			b.Run(fmt.Sprintf("ML-%s/%s", engine, cb.name), func(b *testing.B) {
				benchML(b, h, multilevel.Config{Refine: cfg}, 0.02)
			})
		}
	}
}

// BenchmarkTable2 contrasts the naive ("Reported") and tuned ("Our") LIFO
// FM at both tolerances of Table 2.
func BenchmarkTable2(b *testing.B) {
	h := benchInstance(b, 1)
	for _, tol := range []float64{0.02, 0.10} {
		b.Run(fmt.Sprintf("Reported-LIFO/tol=%g", tol), func(b *testing.B) {
			benchFlat(b, h, core.NaiveConfig(false), tol)
		})
		b.Run(fmt.Sprintf("Our-LIFO/tol=%g", tol), func(b *testing.B) {
			benchFlat(b, h, core.StrongConfig(false), tol)
		})
	}
}

// BenchmarkTable3 contrasts corking-prone and corking-guarded CLIP (Table 3)
// on the macro-heavy ibm02-like instance where corking bites hardest.
func BenchmarkTable3(b *testing.B) {
	h := benchInstance(b, 2)
	for _, tol := range []float64{0.02, 0.10} {
		b.Run(fmt.Sprintf("Reported-CLIP/tol=%g", tol), func(b *testing.B) {
			benchFlat(b, h, core.NaiveConfig(true), tol)
		})
		b.Run(fmt.Sprintf("Our-CLIP/tol=%g", tol), func(b *testing.B) {
			benchFlat(b, h, core.StrongConfig(true), tol)
		})
	}
}

// benchBestOfK measures one full best-of-k ML configuration (with V-cycle
// polish) per iteration — the unit of Tables 4 and 5.
func benchBestOfK(b *testing.B, h *hypergraph.Hypergraph, k int, tol float64) {
	b.Helper()
	bal := partition.NewBalance(h.TotalVertexWeight(), tol)
	heur := eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 1)
	r := rng.New(2029)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _, _ := eval.BestOfK(heur, k, r.Split())
		total += best.Cut
	}
	reportCut(b, total)
}

// BenchmarkTable4 measures the Table 4 configurations (2% tolerance) at
// 1, 4 and 16 starts on small and mid-size instances.
func BenchmarkTable4(b *testing.B) {
	for _, inst := range []int{1, 14} {
		h := benchInstance(b, inst)
		for _, k := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/starts=%d", h.Name, k), func(b *testing.B) {
				benchBestOfK(b, h, k, 0.02)
			})
		}
	}
}

// BenchmarkTable5 is Table 4 at the 10% tolerance of Table 5.
func BenchmarkTable5(b *testing.B) {
	h := benchInstance(b, 1)
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%s/starts=%d", h.Name, k), func(b *testing.B) {
			benchBestOfK(b, h, k, 0.10)
		})
	}
}

// figureSamples produces the single-start sample sets underlying the
// methodology figures.
func figureSamples(b *testing.B, h *hypergraph.Hypergraph) map[string][]eval.Outcome {
	b.Helper()
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	r := rng.New(2030)
	out := map[string][]eval.Outcome{}
	for _, heur := range []eval.Heuristic{
		eval.NewFlat("flat-LIFO", h, core.StrongConfig(false), bal, r.Split()),
		eval.NewFlat("flat-CLIP", h, core.StrongConfig(true), bal, r.Split()),
		eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, 0),
	} {
		out[heur.Name()] = eval.Multistart(context.Background(), heur, 12, r.Split(), nil).Outcomes()
	}
	return out
}

// BenchmarkFigureBSF measures best-so-far curve construction (Figure A).
func BenchmarkFigureBSF(b *testing.B) {
	h := benchInstance(b, 1)
	samples := figureSamples(b, h)
	budgets := []float64{0.001, 0.01, 0.1, 1, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			eval.BSFCurve(s, budgets, true)
		}
	}
}

// BenchmarkFigurePareto measures non-dominated frontier extraction
// (Figure B) over the full configuration point set.
func BenchmarkFigurePareto(b *testing.B) {
	h := benchInstance(b, 1)
	samples := figureSamples(b, h)
	var points []eval.PerfPoint
	for name, s := range samples {
		cuts := make([]float64, len(s))
		var mean float64
		for i, o := range s {
			cuts[i] = float64(o.Cut)
			mean += o.NormalizedSeconds()
		}
		mean /= float64(len(s))
		sortFloats(cuts)
		for _, k := range []int{1, 2, 4, 8, 16} {
			points = append(points, eval.PerfPoint{
				Label:   fmt.Sprintf("%s x%d", name, k),
				Cost:    eval.ExpectedBestOfK(cuts, k),
				Seconds: mean * float64(k),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.ParetoFrontier(points)
	}
}

// BenchmarkFigureRanking measures ranking-diagram construction (Figure C).
func BenchmarkFigureRanking(b *testing.B) {
	h := benchInstance(b, 1)
	samples := figureSamples(b, h)
	bySize := map[int]map[string][]eval.Outcome{h.NumVertices(): samples}
	budgets := []float64{0.001, 0.01, 0.1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RankingDiagram(bySize, budgets, true)
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// BenchmarkAblationInsertion reproduces the Hagen-Huang-Kahng comparison:
// LIFO vs FIFO vs Random gain-bucket insertion.
func BenchmarkAblationInsertion(b *testing.B) {
	h := benchInstance(b, 1)
	for _, ins := range []core.InsertionOrder{core.LIFO, core.FIFO, core.RandomOrder} {
		cfg := core.StrongConfig(false)
		cfg.Insertion = ins
		b.Run(ins.String(), func(b *testing.B) {
			benchFlat(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkAblationCorkGuard toggles the corking guard for plain FM and
// CLIP on the macro-heavy instance.
func BenchmarkAblationCorkGuard(b *testing.B) {
	h := benchInstance(b, 2)
	for _, clip := range []bool{false, true} {
		for _, guard := range []bool{false, true} {
			cfg := core.StrongConfig(clip)
			cfg.CorkGuard = guard
			name := fmt.Sprintf("clip=%v/guard=%v", clip, guard)
			b.Run(name, func(b *testing.B) {
				benchFlat(b, h, cfg, 0.02)
			})
		}
	}
}

// BenchmarkAblationZeroDelta toggles the zero-delta-gain update policy.
func BenchmarkAblationZeroDelta(b *testing.B) {
	h := benchInstance(b, 1)
	for _, upd := range []core.UpdatePolicy{core.AllDeltaGain, core.NonzeroOnly} {
		cfg := core.StrongConfig(false)
		cfg.Update = upd
		b.Run(upd.String(), func(b *testing.B) {
			benchFlat(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkAblationClusterCap varies the multilevel cluster-weight cap.
func BenchmarkAblationClusterCap(b *testing.B) {
	h := benchInstance(b, 1)
	for _, frac := range []float64{0.01, 0.04, 0.16} {
		cfg := multilevel.Config{Refine: core.StrongConfig(false), ClusterCapFrac: frac}
		b.Run(fmt.Sprintf("cap=%g", frac), func(b *testing.B) {
			benchML(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkAblationVCycle compares plain multistart against V-cycling the
// best solution.
func BenchmarkAblationVCycle(b *testing.B) {
	h := benchInstance(b, 1)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	for _, vc := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("vcycles=%d", vc), func(b *testing.B) {
			heur := eval.NewML("ML", h, multilevel.Config{Refine: core.StrongConfig(false)}, bal, vc)
			r := rng.New(2031)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				best, _, _ := eval.BestOfK(heur, 2, r.Split())
				total += best.Cut
			}
			reportCut(b, total)
		})
	}
}

// BenchmarkAblationBestTie varies the equal-cut best-solution tie-break.
func BenchmarkAblationBestTie(b *testing.B) {
	h := benchInstance(b, 1)
	for _, tie := range []core.BestTie{core.FirstBest, core.LastBest, core.MostBalanced} {
		cfg := core.StrongConfig(false)
		cfg.BestTie = tie
		b.Run(tie.String(), func(b *testing.B) {
			benchFlat(b, h, cfg, 0.02)
		})
	}
}

// --- Micro-benchmarks of the substrate hot paths. ---

// BenchmarkPartitionMove measures the incremental move update.
func BenchmarkPartitionMove(b *testing.B) {
	h := benchInstance(b, 1)
	p := partition.New(h)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Move(int32(r.Intn(h.NumVertices())))
	}
}

// BenchmarkGainRecompute measures full gain computation.
func BenchmarkGainRecompute(b *testing.B) {
	h := benchInstance(b, 1)
	p := partition.New(h)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	p.RandomBalanced(rng.New(2), bal)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += p.Gain(int32(i % h.NumVertices()))
	}
	_ = sink
}

// BenchmarkCoarsenContract measures one full contraction level.
func BenchmarkCoarsenContract(b *testing.B) {
	h := benchInstance(b, 1)
	r := rng.New(3)
	clusterOf := make([]int32, h.NumVertices())
	k := h.NumVertices() / 2
	for v := range clusterOf {
		clusterOf[v] = int32(r.Intn(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Contract(clusterOf, k)
	}
}

// BenchmarkGenerate measures synthetic instance generation.
func BenchmarkGenerate(b *testing.B) {
	spec := gen.Scaled(gen.MustIBMProfile(1), benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen.MustGenerate(spec)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BenchmarkAblationLookahead varies the Krishnamurthy lookahead depth
// (reference [30] of the paper) on tuned flat FM.
func BenchmarkAblationLookahead(b *testing.B) {
	h := benchInstance(b, 1)
	for _, depth := range []int{0, 2, 3} {
		cfg := core.StrongConfig(false)
		cfg.LookaheadDepth = depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchFlat(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkSpectral measures the spectral baseline: Fiedler vector plus
// sweep rounding, and the spectral+FM hybrid.
func BenchmarkSpectral(b *testing.B) {
	h := benchInstance(b, 1)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.02)
	b.Run("fiedler-sweep", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			_, res, err := spectral.Bisect(h, bal, spectral.Options{Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Cut
		}
		reportCut(b, total)
	})
	b.Run("spectral+fm", func(b *testing.B) {
		eng := core.NewEngine(h, core.StrongConfig(false), bal, rng.New(1))
		var total int64
		for i := 0; i < b.N; i++ {
			p, _, err := spectral.Bisect(h, bal, spectral.Options{Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			total += eng.Run(p).Cut
		}
		reportCut(b, total)
	})
}

// BenchmarkKWay measures recursive-bisection k-way partitioning with and
// without direct k-way FM refinement.
func BenchmarkKWay(b *testing.B) {
	h := benchInstance(b, 1)
	for _, refine := range []bool{false, true} {
		b.Run(fmt.Sprintf("k=4/refine=%v", refine), func(b *testing.B) {
			r := rng.New(7)
			var total int64
			for i := 0; i < b.N; i++ {
				res, err := kway.Partition(h, 4, kway.Config{Tolerance: 0.05, DirectRefine: refine}, r.Split())
				if err != nil {
					b.Fatal(err)
				}
				total += res.CutNets
			}
			reportCut(b, total)
		})
	}
}

// BenchmarkExactOracle measures the branch-and-bound optimum on a
// 24-vertex instance (the health-check yardstick).
func BenchmarkExactOracle(b *testing.B) {
	spec := gen.Spec{Name: "tiny", Cells: 24, Nets: 40, AvgNetSize: 2.8, Locality: 2, Seed: 11}
	h := gen.MustGenerate(spec)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Bisect(h, bal, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBoundary compares full vs boundary-only refinement as
// the multilevel uncoarsening engine.
func BenchmarkAblationBoundary(b *testing.B) {
	h := benchInstance(b, 1)
	for _, boundary := range []bool{false, true} {
		cfg := core.StrongConfig(false)
		cfg.BoundaryOnly = boundary
		b.Run(fmt.Sprintf("boundary=%v", boundary), func(b *testing.B) {
			benchML(b, h, multilevel.Config{Refine: cfg}, 0.02)
		})
	}
}

// BenchmarkAblationMatching compares the hMETIS-family coarsening schemes.
func BenchmarkAblationMatching(b *testing.B) {
	h := benchInstance(b, 1)
	for _, scheme := range []multilevel.Matching{
		multilevel.FirstChoice, multilevel.RandomMatching,
		multilevel.HeavyEdge, multilevel.HyperedgeCoarsening,
	} {
		cfg := multilevel.Config{Refine: core.StrongConfig(false), Matching: scheme}
		b.Run(scheme.String(), func(b *testing.B) {
			benchML(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkParsers measures netlist I/O throughput on the bench instance.
func BenchmarkParsers(b *testing.B) {
	h := benchInstance(b, 1)
	var hgrBuf, netdBuf, areBuf, patohBuf bytes.Buffer
	if err := netlist.WriteHGR(&hgrBuf, h); err != nil {
		b.Fatal(err)
	}
	if err := netlist.WriteNetD(&netdBuf, h); err != nil {
		b.Fatal(err)
	}
	if err := netlist.WriteAre(&areBuf, h); err != nil {
		b.Fatal(err)
	}
	if err := netlist.WritePaToH(&patohBuf, h); err != nil {
		b.Fatal(err)
	}
	hgr, netd, are, patoh := hgrBuf.Bytes(), netdBuf.Bytes(), areBuf.Bytes(), patohBuf.Bytes()

	b.Run("hgr", func(b *testing.B) {
		b.SetBytes(int64(len(hgr)))
		for i := 0; i < b.N; i++ {
			if _, err := netlist.ParseHGR(bytes.NewReader(hgr), "b"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("netd", func(b *testing.B) {
		b.SetBytes(int64(len(netd)))
		for i := 0; i < b.N; i++ {
			if _, err := netlist.ParseNetD(bytes.NewReader(netd), bytes.NewReader(are), "b"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("patoh", func(b *testing.B) {
		b.SetBytes(int64(len(patoh)))
		for i := 0; i < b.N; i++ {
			if _, err := netlist.ParsePaToH(bytes.NewReader(patoh), "b"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlacer measures full top-down placement per iteration, in both
// bisection and quadrisection modes.
func BenchmarkPlacer(b *testing.B) {
	h := benchInstance(b, 1)
	for _, quad := range []bool{false, true} {
		b.Run(fmt.Sprintf("quad=%v", quad), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := placer.Place(h, placer.Config{Seed: uint64(i + 1), Quadrisection: quad}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpectralFiedler measures the eigensolver alone.
func BenchmarkSpectralFiedler(b *testing.B) {
	h := benchInstance(b, 1)
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Fiedler(h, spectral.Options{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSkipPolicy compares the two readings of the paper's
// selection rule when a bucket head is illegal: skip the whole side
// (default) vs skip only that bucket.
func BenchmarkAblationSkipPolicy(b *testing.B) {
	h := benchInstance(b, 2) // macro-heavy
	for _, skipBucket := range []bool{false, true} {
		cfg := core.StrongConfig(false)
		cfg.CorkGuard = false // let illegal heads occur
		cfg.SkipBucketOnly = skipBucket
		b.Run(fmt.Sprintf("skipBucketOnly=%v", skipBucket), func(b *testing.B) {
			benchFlat(b, h, cfg, 0.02)
		})
	}
}

// BenchmarkParRefineKWay measures the synchronous-round parallel k-way
// refiner at several thread counts on one pinned instance and start.
// ReportAllocs keeps the steady-state allocation discipline visible in
// every run: the per-op count must stay at the amortized arena-growth
// floor, not scale with moves (the regression the hgbench parfm case pins
// to exactly zero).
func BenchmarkParRefineKWay(b *testing.B) {
	h := benchInstance(b, 1)
	const k = 8
	base := make(Assignment, h.NumVertices())
	r := rng.New(2033)
	for v := range base {
		base[v] = int32(r.Intn(k))
	}
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			eng, err := kwayfm.NewParEngine(h, k, kwayfm.ParConfig{
				Tolerance: 0.15,
				Objective: kwayfm.CutObjective,
				Threads:   threads,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			scratch := make(Assignment, h.NumVertices())
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, base)
				res, err := eng.Refine(context.Background(), scratch)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Final
			}
			reportCut(b, total)
		})
	}
}
