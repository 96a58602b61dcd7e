// Command hggen generates synthetic ISPD98-like benchmark instances and
// writes them in hMETIS (.hgr) or ISPD98 (.netD + .are) format.
//
// Usage:
//
//	hggen -ibm 1 -scale 0.25 -format hgr -o ibm01q.hgr
//	hggen -cells 20000 -nets 22000 -avgnet 3.8 -format netd -o custom
//
// With -format netd, two files are written: <o>.netD and <o>.are. -seed 0
// (the default) keeps the profile's own instance seed and any other value is
// the instance seed, the rule hgserved applies to "instance_seed": hggen
// -ibm 1 -seed 7 writes the instance {"benchmark":"ibm01","instance_seed":7}
// partitions.
package main

import (
	"flag"
	"fmt"
	"os"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
)

func main() {
	var (
		ibm     = flag.Int("ibm", 0, "ISPD98 profile number 1-18 (0 = use -cells/-nets)")
		scale   = flag.Float64("scale", 1.0, "downscale factor in (0,1]")
		cells   = flag.Int("cells", 10000, "cell count (when -ibm 0)")
		nets    = flag.Int("nets", 11000, "net count (when -ibm 0)")
		avgnet  = flag.Float64("avgnet", 3.6, "target average net size (when -ibm 0)")
		unit    = flag.Bool("unit", false, "unit areas (MCNC-style) instead of actual areas")
		seed    = flag.Uint64("seed", 0, "instance seed (0 = the profile's own, the instance hgserved builds without instance_seed)")
		format  = flag.String("format", "hgr", "output format: hgr or netd")
		outPath = flag.String("o", "", "output path (stdout for hgr if empty)")
	)
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("-scale %g out of range (0,1]", *scale))
	}

	var spec gen.Spec
	if *ibm > 0 {
		s, _, err := gen.Benchmark(fmt.Sprint("ibm", *ibm), *scale, *seed)
		if err != nil {
			fatal(err)
		}
		spec = s
	} else {
		spec = gen.Instance(gen.Spec{
			Name:          fmt.Sprintf("custom-%dc", *cells),
			Cells:         *cells,
			Nets:          *nets,
			AvgNetSize:    *avgnet,
			NumMacros:     *cells / 400,
			MaxMacroFrac:  0.05,
			NumGlobalNets: 2,
			GlobalNetFrac: 0.01,
			Locality:      2,
		}, *scale, *seed)
	}
	spec.UnitArea = *unit

	h, err := gen.Generate(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, hypergraph.ComputeStats(h))

	switch *format {
	case "hgr":
		w := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := netlist.WriteHGR(w, h); err != nil {
			fatal(err)
		}
	case "netd":
		if *outPath == "" {
			fatal(fmt.Errorf("-format netd requires -o <basename>"))
		}
		if err := netlist.WriteFiles(h, nil, "netd", *outPath); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q (hgr or netd)", *format))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hggen:", err)
	os.Exit(1)
}
