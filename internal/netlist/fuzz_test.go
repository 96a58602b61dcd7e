package netlist

import (
	"strings"
	"testing"
)

// Native fuzz targets for every parser. The contract under fuzzing is
// parse-or-error: arbitrary bytes must yield either an error or a hypergraph
// that passes Validate — never a panic, never a structurally corrupt result,
// and never an allocation proportional to a number the file merely claims.
// The seed corpora include the inputs that crashed earlier parser revisions
// (negative NetDegree, astronomically large header counts) as regressions.

// checkedParse asserts the parse-or-error contract for one parser invocation.
func checkedParse(t *testing.T, what string, parse func() (interface{ Validate() error }, error)) {
	t.Helper()
	h, err := parse()
	if err != nil {
		return
	}
	if verr := h.Validate(); verr != nil {
		t.Fatalf("%s: accepted input but produced invalid hypergraph: %v", what, verr)
	}
}

func FuzzParseHGR(f *testing.F) {
	f.Add("2 3\n1 2\n2 3\n")
	f.Add("2 3 11\n5 1 2\n2 2 3\n4\n1\n1\n")
	f.Add("% comment\n1 2 1\n-5 1 2\n")
	f.Add("99999999999999999999 3\n") // overflows int
	f.Add("16777216 16777215\n")      // at the sanity cap
	f.Add("999999999 2\n1 2\n")       // over the sanity cap
	f.Add("1 2\n1 999\n")             // pin out of range
	f.Add("2 3\n1 2\n")               // truncated
	f.Add("1 3 12\n1 2\n5\n6\n7\n")   // unknown format code
	f.Fuzz(func(t *testing.T, in string) {
		checkedParse(t, "hgr", func() (interface{ Validate() error }, error) {
			return ParseHGR(strings.NewReader(in), "fuzz")
		})
	})
}

func FuzzParsePaToH(f *testing.F) {
	f.Add("0 3 2 4\n0 1\n1 2\n")
	f.Add("1 3 2 4 3\n2 1 2\n7 2 3\n5 5 5\n")
	f.Add("0 -1 2 4\n")
	f.Add("0 3 2 999999999\n0 1\n1 2\n")
	f.Add("0 999999999 1 2\n0 1\n")
	f.Add("0 3 2 4 2\n-9 0 1\n1 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		checkedParse(t, "patoh", func() (interface{ Validate() error }, error) {
			return ParsePaToH(strings.NewReader(in), "fuzz")
		})
	})
}

func FuzzParseNetD(f *testing.F) {
	f.Add("0\n4\n2\n3\n3\na0 s\na1 l\na2 s\na0 l\n")
	f.Add("0\n4\n2\n999999999\n0\n")
	f.Add("0\n-4\n2\n3\n3\n")
	f.Add("7\n4\n2\n3\n3\n")       // wrong magic
	f.Add("0\n2\n1\n2\n2\na0 x\n") // bad flag
	f.Fuzz(func(t *testing.T, in string) {
		checkedParse(t, "netD", func() (interface{ Validate() error }, error) {
			return ParseNetD(strings.NewReader(in), nil, "fuzz")
		})
	})
}

func FuzzParseBookshelf(f *testing.F) {
	nodes := "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a0 2 3\n a1 1 1 terminal\n a2 4 2\n"
	f.Add(nodes, "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a0 B\n a1 B\n")
	f.Add(nodes, "UCLA nets 1.0\nNetDegree : -1\n")          // crashed: negative make cap
	f.Add(nodes, "UCLA nets 1.0\nNetDegree : 99999999999\n") // huge declared degree
	f.Add(nodes, "UCLA nets 1.0\nNetDegree : 2\n a0 B\n")    // truncated net
	f.Add("UCLA nodes 1.0\n a0 -3 -4\n", "UCLA nets 1.0\n")  // negative dims
	f.Add("not a header\n", "UCLA nets 1.0\n")
	f.Fuzz(func(t *testing.T, nodesIn, netsIn string) {
		checkedParse(t, "bookshelf", func() (interface{ Validate() error }, error) {
			d, err := ParseBookshelf(strings.NewReader(nodesIn), strings.NewReader(netsIn), "fuzz")
			if err != nil {
				return nil, err
			}
			return d.H, nil
		})
	})
}
