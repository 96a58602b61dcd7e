// Command hgeval regenerates the paper's tables and methodology figures.
//
// Usage:
//
//	hgeval -table 1              # Table 1 at the default laptop scale
//	hgeval -table 4 -scale 0.2   # Table 4 on 20%-size instances
//	hgeval -table 2 -full        # Table 2 with the paper's full protocol
//	hgeval -figure bsf           # Figure A (best-so-far curves)
//	hgeval -figure pareto        # Figure B (non-dominated frontier)
//	hgeval -figure ranking       # Figure C (speed-dependent ranking)
//	hgeval -all                  # every table and figure
//	hgeval -extra idle -scale 1  # early-exit limit frontier, 2% and 10% (not in -all)
//
// Add -csv to emit CSV instead of an aligned text table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"hgpart/internal/experiments"
	"hgpart/internal/report"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate paper table 1-5")
		extra    = flag.String("extra", "", "extra experiment: corking, insertion, significance, regimes, era, idle")
		figure   = flag.String("figure", "", "regenerate methodology figure: bsf, pareto, ranking")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		full     = flag.Bool("full", false, "use the paper's full protocol (hours of CPU)")
		scale    = flag.Float64("scale", 0, "instance downscale factor (default 0.15)")
		runs     = flag.Int("runs", 0, "single-start trials per cell for Tables 1-3 (paper: 100)")
		reps     = flag.Int("reps", 0, "repetitions per configuration for Tables 4-5 (paper: 50)")
		seed     = flag.Uint64("seed", 0, "experiment seed (default 1999)")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		plotIt   = flag.Bool("plot", false, "also render ASCII charts where available (figure bsf)")
		spread   = flag.Bool("dist", false, "append distribution descriptors (stddev) to Tables 4/5 cells")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; unevaluated cells are marked, not fabricated")
		checkInv = flag.Bool("check-invariants", false, "run engines in debug mode and verify every start's outcome")
	)
	flag.Parse()

	if *scale > 1 || *scale < 0 {
		fatal(fmt.Errorf("-scale %g out of range (0,1]", *scale))
	}

	opt := experiments.DefaultOptions()
	if *full {
		opt = experiments.PaperOptions()
	}
	if *scale > 0 {
		opt.Scale = *scale
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	if *reps > 0 {
		opt.Reps = *reps
	}
	if *seed > 0 {
		opt.Seed = *seed
	}
	opt.Spread = *spread
	opt.CheckInvariants = *checkInv
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Ctx = ctx
	}

	emit := func(t *report.Table) {
		if *csv {
			fmt.Println("#", t.Title)
			t.WriteCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
	run := func(name string, f func(experiments.Options) *report.Table) {
		t0 := time.Now()
		tab := f(opt)
		fmt.Fprintf(os.Stderr, "[%s generated in %.1fs]\n", name, time.Since(t0).Seconds())
		emit(tab)
	}

	if *all {
		run("table1", experiments.Table1)
		run("table2", experiments.Table2)
		run("table3", experiments.Table3)
		run("table4", func(o experiments.Options) *report.Table { return experiments.Table45(o, 0.02) })
		run("table5", func(o experiments.Options) *report.Table { return experiments.Table45(o, 0.10) })
		run("figureA-bsf", experiments.FigureBSF)
		run("figureB-pareto", experiments.FigurePareto)
		run("figureC-ranking", experiments.FigureRanking)
		run("extra-corking", experiments.TableCorking)
		run("extra-insertion", experiments.TableInsertion)
		run("extra-significance", experiments.TableSignificance)
		run("extra-regimes", experiments.TableRegimes)
		run("extra-era", experiments.TableBenchmarkEra)
		return
	}

	switch *table {
	case 0:
	case 1:
		run("table1", experiments.Table1)
	case 2:
		run("table2", experiments.Table2)
	case 3:
		run("table3", experiments.Table3)
	case 4:
		run("table4", func(o experiments.Options) *report.Table { return experiments.Table45(o, 0.02) })
	case 5:
		run("table5", func(o experiments.Options) *report.Table { return experiments.Table45(o, 0.10) })
	default:
		fatal(fmt.Errorf("no table %d (valid: 1-5)", *table))
	}

	switch *extra {
	case "":
	case "corking":
		run("extra-corking", experiments.TableCorking)
	case "insertion":
		run("extra-insertion", experiments.TableInsertion)
	case "significance":
		run("extra-significance", experiments.TableSignificance)
	case "regimes":
		run("extra-regimes", experiments.TableRegimes)
	case "era":
		run("extra-era", experiments.TableBenchmarkEra)
	case "idle":
		run("extra-idle-2", func(o experiments.Options) *report.Table { return experiments.TableIdleFrontier(o, 0.02) })
		run("extra-idle-10", func(o experiments.Options) *report.Table { return experiments.TableIdleFrontier(o, 0.10) })
	default:
		fatal(fmt.Errorf("no extra %q (valid: corking, insertion, significance, regimes, era, idle)", *extra))
	}

	switch *figure {
	case "":
	case "bsf":
		run("figureA-bsf", experiments.FigureBSF)
		if *plotIt {
			fmt.Println(experiments.FigureBSFChart(opt))
		}
	case "pareto":
		run("figureB-pareto", experiments.FigurePareto)
	case "ranking":
		run("figureC-ranking", experiments.FigureRanking)
	default:
		fatal(fmt.Errorf("no figure %q (valid: bsf, pareto, ranking)", *figure))
	}

	if *table == 0 && *figure == "" && *extra == "" && !*all {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgeval:", err)
	os.Exit(1)
}
