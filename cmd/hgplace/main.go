// Command hgplace runs the top-down recursive min-cut bisection placer —
// the paper's driving application — on a netlist and reports half-perimeter
// wirelength, optionally writing a Bookshelf .pl placement file.
//
// Usage:
//
//	hgplace -ibm 1 -scale 0.1
//	hgplace -in design.hgr -tol 0.1 -pl out.pl
//	hgplace -nodes d.nodes -nets d.nets -pl out.pl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
	"hgpart/internal/placer"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input netlist (.hgr, .patoh/.u, or .netD/.net)")
		nodesPath = flag.String("nodes", "", "Bookshelf .nodes file (with -nets)")
		netsPath  = flag.String("nets", "", "Bookshelf .nets file (with -nodes)")
		ibm       = flag.Int("ibm", 0, "generate ISPD98-like profile 1-18")
		scale     = flag.Float64("scale", 1.0, "downscale factor for -ibm")
		tol       = flag.Float64("tol", 0.1, "per-bisection balance tolerance")
		leaf      = flag.Int("leaf", 16, "max cells per leaf region")
		flat      = flag.Bool("flat", false, "disable the multilevel engine")
		quad      = flag.Bool("quad", false, "quadrisection (Suaris-Kedem) instead of alternating bisection")
		seed      = flag.Uint64("seed", 1, "placer seed (-ibm is always the profile's own instance)")
		plPath    = flag.String("pl", "", "write Bookshelf .pl placement to this file")
	)
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("-scale %g out of range (0,1]", *scale))
	}
	if *tol <= 0 || *tol >= 1 {
		fatal(fmt.Errorf("-tol %g out of range (0,1)", *tol))
	}

	h, terminals, err := load(*inPath, *nodesPath, *netsPath, *ibm, *scale)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, hypergraph.ComputeStats(h))
	if terminals > 0 {
		fmt.Fprintf(os.Stderr, "  (%d terminal nodes in the input)\n", terminals)
	}

	t0 := time.Now()
	pl, err := placer.Place(h, placer.Config{
		MaxCellsPerRegion: *leaf,
		Tolerance:         *tol,
		DisableML:         *flat,
		Quadrisection:     *quad,
		Seed:              *seed,
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	fmt.Printf("bisections=%d with_terminals=%d (%.0f%%)\n",
		pl.Bisections, pl.FixedTerminalInstances,
		100*float64(pl.FixedTerminalInstances)/float64(maxInt(1, pl.Bisections)))
	fmt.Printf("hpwl=%.3f (unit square)\n", pl.HPWL(h))
	fmt.Printf("time=%.3fs\n", elapsed.Seconds())

	if *plPath != "" {
		f, err := os.Create(*plPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := netlist.WriteBookshelfPl(f, pl.X, pl.Y, 1000); err != nil {
			fatal(err)
		}
		fmt.Printf("placement written to %s\n", *plPath)
	}
}

// load reads the Bookshelf pair, else generates -ibm, else reads -in. -seed
// seeds the placer only: -ibm is always the profile's own instance.
func load(inPath, nodesPath, netsPath string, ibm int, scale float64) (*hypergraph.Hypergraph, int, error) {
	if ibm > 0 && (nodesPath == "" || netsPath == "") {
		spec, _, err := gen.Benchmark(fmt.Sprint("ibm", ibm), scale, 0)
		if err != nil {
			return nil, 0, err
		}
		h, err := gen.Generate(spec)
		return h, 0, err
	}
	if inPath == "" && (nodesPath == "" || netsPath == "") {
		return nil, 0, fmt.Errorf("need -in, -nodes/-nets, or -ibm")
	}
	h, terminal, err := netlist.ReadFiles(netlist.Files{Path: inPath, Nodes: nodesPath, Nets: netsPath})
	terms := 0
	for _, t := range terminal {
		if t {
			terms++
		}
	}
	return h, terms, err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgplace:", err)
	os.Exit(1)
}
