// Command hgstats prints the instance statistics the paper's §2.1 calls the
// "salient attributes of real-world inputs" for one or more netlists or
// synthetic profiles.
//
// Usage:
//
//	hgstats circuit.hgr other.netD design.patoh
//	hgstats -ibm all -scale 0.1
//	hgstats -ibm 1 -scale 0.1 -features   # portfolio feature vector as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
	"hgpart/internal/portfolio"
	"hgpart/internal/rent"
)

func main() {
	var (
		ibm      = flag.String("ibm", "", "profile number 1-18, or \"all\"")
		mcnc     = flag.String("mcnc", "", "MCNC profile name, or \"all\"")
		scale    = flag.Float64("scale", 1.0, "downscale factor for -ibm")
		withRent = flag.Bool("rent", false, "also estimate the Rent exponent (recursive bisection)")
		features = flag.Bool("features", false, "emit the portfolio feature vector and bucket as JSON instead of the stats table")
	)
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("-scale %g out of range (0,1]", *scale))
	}
	if *features && *withRent {
		fatal(fmt.Errorf("-features and -rent are mutually exclusive"))
	}

	report := func(h *hypergraph.Hypergraph) {
		if *features {
			emitFeatures(h)
			return
		}
		fmt.Print(hypergraph.ComputeStats(h))
		if *withRent {
			est, err := rent.Analyze(h, rent.Options{})
			if err != nil {
				fmt.Printf("  rent: %v\n", err)
			} else {
				fmt.Printf("  rent exponent p=%.3f t=%.2f (R2=%.2f, %d blocks)\n",
					est.P, est.T0, est.R2, len(est.Samples))
			}
		}
	}

	var names []string
	switch {
	case *ibm == "all":
		for i := 1; i <= 18; i++ {
			names = append(names, fmt.Sprint("ibm", i))
		}
	case *ibm != "":
		n, err := strconv.Atoi(*ibm)
		if err != nil {
			fatal(fmt.Errorf("bad -ibm %q", *ibm))
		}
		names = []string{fmt.Sprint("ibm", n)}
	case *mcnc == "all":
		for _, name := range gen.MCNCNames() {
			names = append(names, "mcnc:"+name)
		}
	case *mcnc != "":
		names = []string{"mcnc:" + *mcnc}
	case flag.NArg() == 0:
		fatal(fmt.Errorf("usage: hgstats [-ibm N|all] [files...]"))
	}
	for _, name := range names {
		spec, _, err := gen.Benchmark(name, *scale, 0)
		if err != nil {
			fatal(err)
		}
		h, err := gen.Generate(spec)
		if err != nil {
			fatal(err)
		}
		report(h)
	}
	if names != nil {
		return
	}
	for _, path := range flag.Args() {
		h, _, err := netlist.ReadFiles(netlist.Files{Path: path})
		if err != nil {
			fatal(err)
		}
		report(h)
	}
}

// emitFeatures prints one JSON document per instance: the deterministic
// portfolio feature vector plus its discretized bucket key — the exact
// inputs the portfolio scheduler buckets on, so operators can see which
// bucket (and therefore which stored arm statistics) a netlist lands in.
func emitFeatures(h *hypergraph.Hypergraph) {
	if err := writeFeatures(os.Stdout, h); err != nil {
		fatal(err)
	}
}

// writeFeatures renders the -features JSON document; the golden-file test
// pins its exact bytes.
func writeFeatures(w io.Writer, h *hypergraph.Hypergraph) error {
	f := portfolio.Extract(h)
	doc := struct {
		portfolio.Features
		Bucket string `json:"bucket"`
	}{f, portfolio.BucketOf(f).Key()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgstats:", err)
	os.Exit(1)
}
