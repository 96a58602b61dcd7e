package netlist

import (
	"errors"
	"strings"
	"testing"
)

// Table-driven coverage of the parser error paths: every malformed input —
// including the fuzz-corpus seeds that crashed earlier parser revisions —
// must come back as a typed *ParseError carrying the right Format and input
// name, never as a panic and never as an untyped error the CLI and the
// hgserved service cannot classify.

func TestHGRErrorPaths(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "header"},
		{"header one field", "3\n", "2-3 fields"},
		{"header four fields", "1 2 3 4\n", "2-3 fields"},
		{"edge count not a number", "x 3\n", "edge count"},
		{"vertex count not a number", "2 y\n", "vertex count"},
		{"edge count overflows int", "99999999999999999999 3\n", "edge count"},
		{"edge count over sanity cap", "999999999 2\n1 2\n", "sanity cap"},
		{"negative vertex count", "1 -2\n1\n", "negative"},
		{"bad format field", "1 2 z\n1 2\n", "format field"},
		{"unknown format code", "1 3 12\n1 2\n5\n6\n7\n", "want 0, 1, 10 or 11"},
		{"pin not a number", "1 2\n1 q\n", "pin"},
		{"pin zero", "1 2\n0 1\n", "outside [1,2]"},
		{"pin out of range", "1 2\n1 999\n", "outside [1,2]"},
		{"truncated edge list", "2 3\n1 2\n", "edge 2"},
		{"bad edge weight", "1 2 1\nw 1 2\n", "weight"},
		{"missing vertex weights", "1 2 11\n5 1 2\n4\n", "vertex weight"},
		{"bad vertex weight", "1 2 11\n5 1 2\nx\ny\n", "vertex weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ParseHGR(strings.NewReader(tc.in), "bad.hgr")
			assertParseError(t, h, err, "hgr", "bad.hgr", tc.wantSub)
		})
	}
}

func TestNetDErrorPaths(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "missing magic"},
		{"bad magic", "7\n4\n2\n3\n3\n", "must start with 0"},
		{"magic not a number", "zero\n", "not an integer"},
		{"missing counts", "0\n", "missing pin count"},
		{"negative module count", "0\n4\n2\n-3\n3\n", "negative"},
		{"pin count over sanity cap", "0\n999999999\n2\n3\n3\n", "sanity cap"},
		{"malformed pin line", "0\n2\n1\n2\n2\nlonely\n", "malformed pin line"},
		{"bad flag", "0\n2\n1\n2\n2\na0 x\n", "flag must be s or l"},
		{"too many modules", "0\n3\n1\n1\n1\na0 s\na1 l\na2 l\n", "more distinct modules"},
		{"pin count mismatch", "0\n4\n2\n3\n3\na0 s\na1 l\n", "declares 4 pins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ParseNetD(strings.NewReader(tc.in), nil, "bad.netD")
			assertParseError(t, h, err, "netD", "bad.netD", tc.wantSub)
		})
	}
}

func TestNetDAreErrorPaths(t *testing.T) {
	const goodNet = "0\n2\n1\n2\n2\na0 s\na1 l\n"
	cases := []struct {
		name, are, wantSub string
	}{
		{"malformed are line", "a0 1 extra\n", "malformed .are line"},
		{"area not a number", "a0 big\n", ".are area"},
		{"unknown module overflow", "a9 1\n", "more distinct modules"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ParseNetD(strings.NewReader(goodNet), strings.NewReader(tc.are), "bad.netD")
			assertParseError(t, h, err, "netD", "bad.netD", tc.wantSub)
		})
	}
}

func TestPaToHErrorPaths(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "base"},
		{"negative cells", "0 -1 2 4\n", "negative"},
		{"pins over sanity cap", "0 3 2 999999999\n0 1\n1 2\n", "sanity cap"},
		{"cells over sanity cap", "0 999999999 1 2\n0 1\n", "sanity cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ParsePaToH(strings.NewReader(tc.in), "bad.patoh")
			assertParseError(t, h, err, "patoh", "bad.patoh", tc.wantSub)
		})
	}
}

func TestBookshelfErrorPaths(t *testing.T) {
	nodes := "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a0 2 3\n a1 1 1 terminal\n a2 4 2\n"
	cases := []struct {
		name, nodes, nets, wantSub string
	}{
		{"negative net degree", nodes, "UCLA nets 1.0\nNetDegree : -1\n", "net degree"},
		{"huge net degree", nodes, "UCLA nets 1.0\nNetDegree : 99999999999\n", "sanity cap"},
		{"unknown pin node", nodes, "UCLA nets 1.0\nNetDegree : 1\n zz B\n", "zz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ParseBookshelf(strings.NewReader(tc.nodes), strings.NewReader(tc.nets), "bad.bookshelf")
			if d != nil && err == nil {
				t.Fatalf("accepted malformed input")
			}
			assertParseError(t, nil, err, "bookshelf", "bad.bookshelf", tc.wantSub)
		})
	}
}

// assertParseError checks the full typed-error contract for one rejection.
func assertParseError(t *testing.T, h any, err error, format, name, wantSub string) {
	t.Helper()
	if err == nil {
		t.Fatalf("malformed input accepted (result %v)", h)
	}
	pe, ok := AsParseError(err)
	if !ok {
		t.Fatalf("error is not a *ParseError: %T %v", err, err)
	}
	if pe.Format != format {
		t.Errorf("ParseError.Format = %q, want %q", pe.Format, format)
	}
	if pe.Name != name {
		t.Errorf("ParseError.Name = %q, want %q", pe.Name, name)
	}
	if pe.Unwrap() == nil {
		t.Errorf("ParseError.Unwrap() = nil, want underlying cause")
	}
	var target *ParseError
	if !errors.As(err, &target) {
		t.Errorf("errors.As failed to match *ParseError")
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("error %q does not mention %q", err.Error(), wantSub)
	}
	if !strings.HasPrefix(err.Error(), "netlist:") {
		t.Errorf("error %q lost the netlist: prefix", err.Error())
	}
}
