// Command hgconvert converts hypergraph netlists between the supported
// formats: hMETIS .hgr, ISPD98 .netD/.are, PaToH, and UCLA Bookshelf
// .nodes/.nets.
//
// Usage:
//
//	hgconvert -in design.hgr -out design           -to netd
//	hgconvert -in design.netD -are design.are -out d -to patoh
//	hgconvert -nodes d.nodes -nets d.nets -out d   -to hgr
//
// The input format is chosen by extension unless -from names it: .hgr for
// hMETIS, .patoh/.u for PaToH, anything else is parsed as ISPD98 .netD/.net
// (with -are supplying areas). The output basename gets format-appropriate
// extensions appended. A Bookshelf output keeps the terminal nodes of a
// Bookshelf input; node names are regenerated (o0, o1, ...).
package main

import (
	"flag"
	"fmt"
	"os"

	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input netlist (.hgr, .patoh/.u, or .netD/.net; -from overrides)")
		arePath   = flag.String("are", "", "ISPD98 .are areas for -in *.netD")
		nodesPath = flag.String("nodes", "", "Bookshelf .nodes (with -nets)")
		netsPath  = flag.String("nets", "", "Bookshelf .nets (with -nodes)")
		from      = flag.String("from", "", "input format override: hgr, netd, patoh")
		to        = flag.String("to", "hgr", "output format: hgr, netd, patoh, bookshelf")
		outPath   = flag.String("out", "", "output basename (required)")
	)
	flag.Parse()
	if *outPath == "" {
		fatal(fmt.Errorf("need -out <basename>"))
	}

	if *inPath == "" && (*nodesPath == "" || *netsPath == "") {
		fatal(fmt.Errorf("need -in or -nodes/-nets"))
	}
	h, terminal, err := netlist.ReadFiles(netlist.Files{
		Path: *inPath, Are: *arePath, Format: *from, Nodes: *nodesPath, Nets: *netsPath,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, hypergraph.ComputeStats(h))

	if err := netlist.WriteFiles(h, terminal, *to, *outPath); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgconvert:", err)
	os.Exit(1)
}
