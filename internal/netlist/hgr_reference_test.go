package netlist

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
)

// referenceParseHGR is the straightforward line-at-a-time hMETIS parser
// (strings.TrimSpace, strings.Fields and strconv on every token) that the
// in-place byte tokenizer of parseHGR replaced, plus the format-code check.
// The two must agree on every input: same accept/reject, byte-equal error
// strings, identical hypergraphs.
func referenceParseHGR(r io.Reader, name string) (*hypergraph.Hypergraph, error) {
	h, err := referenceParseHGRInner(r, name)
	return h, wrapParse("hgr", name, err)
}

func referenceParseHGRInner(r io.Reader, name string) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	nextLine := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := nextLine()
	if err != nil {
		return nil, fmt.Errorf("netlist: hgr header: %w", err)
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, fmt.Errorf("netlist: hgr header needs 2-3 fields, got %d", len(header))
	}
	numEdges, err := strconv.Atoi(header[0])
	if err != nil {
		return nil, fmt.Errorf("netlist: hgr edge count: %w", err)
	}
	numVertices, err := strconv.Atoi(header[1])
	if err != nil {
		return nil, fmt.Errorf("netlist: hgr vertex count: %w", err)
	}
	if err := checkDeclared("hgr", "edge count", numEdges); err != nil {
		return nil, err
	}
	if err := checkDeclared("hgr", "vertex count", numVertices); err != nil {
		return nil, err
	}
	format := 0
	if len(header) == 3 {
		format, err = strconv.Atoi(header[2])
		if err != nil {
			return nil, fmt.Errorf("netlist: hgr format field: %w", err)
		}
		if format != 0 && format != 1 && format != 10 && format != 11 {
			return nil, fmt.Errorf("netlist: hgr format field %d: want 0, 1, 10 or 11", format)
		}
	}
	edgeWeighted := format == 1 || format == 11
	vertexWeighted := format == 10 || format == 11

	b := hypergraph.NewBuilder(preallocCap(numVertices), preallocCap(numEdges))
	b.Name = name
	b.AddVertices(numVertices, 1)

	for e := 0; e < numEdges; e++ {
		fields, err := nextLine()
		if err != nil {
			return nil, fmt.Errorf("netlist: hgr edge %d: %w", e+1, err)
		}
		w := int64(1)
		idx := 0
		if edgeWeighted {
			w, err = strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr edge %d weight: %w", e+1, err)
			}
			idx = 1
		}
		pins := make([]int32, 0, len(fields)-idx)
		for _, f := range fields[idx:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr edge %d pin %q: %w", e+1, f, err)
			}
			if v < 1 || v > numVertices {
				return nil, fmt.Errorf("netlist: hgr edge %d pin %d outside [1,%d]", e+1, v, numVertices)
			}
			pins = append(pins, int32(v-1))
		}
		b.AddEdge(w, pins...)
	}
	if vertexWeighted {
		for v := 0; v < numVertices; v++ {
			fields, err := nextLine()
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr vertex weight %d: %w", v+1, err)
			}
			w, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr vertex weight %d: %w", v+1, err)
			}
			b.SetVertexWeight(int32(v), w)
		}
	}
	h, err := b.Build()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// sameParse fails t unless the two parse results agree exactly.
func sameParse(t *testing.T, in string, got *hypergraph.Hypergraph, gotErr error, want *hypergraph.Hypergraph, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: error %v, reference error %v", in, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("input %q: error\n  %q\nreference error\n  %q", in, gotErr.Error(), wantErr.Error())
		}
		return
	}
	equalGraphs(t, got, want)
	if got.Name != want.Name || got.TotalVertexWeight() != want.TotalVertexWeight() ||
		got.MaxVertexWeight() != want.MaxVertexWeight() || got.MaxEdgeSize() != want.MaxEdgeSize() {
		t.Fatalf("input %q: name or cached totals differ", in)
	}
	for v := 0; v < got.NumVertices(); v++ {
		if !slices.Equal(got.IncidentEdges(int32(v)), want.IncidentEdges(int32(v))) {
			t.Fatalf("input %q: incident edges of vertex %d differ", in, v)
		}
	}
}

// FuzzParseHGRMatchesReference checks ParseHGR against referenceParseHGR.
// The seeds (run on every `go test`) are the inputs where a byte-level
// tokenizer can drift from strings.Fields + strconv: line endings, ASCII and
// Unicode spacing, comment placement, signs, leading zeros, long and
// overflowing tokens, invalid UTF-8 and format codes.
func FuzzParseHGRMatchesReference(f *testing.F) {
	for _, in := range []string{
		"2 3\r\n1 2\r\n2 3\r\n",
		"2 3 1\r\n4\t1\v2\r\n5\f2 3\n",
		"  % indented comment\n2 3\n1 2\n   %x\n2 3\n",
		"\t%tab comment\n1 2\n1 2\n",
		"2 3\n1\u00852\n2\u00a03\n",
		"1 3\n1\u20002\u30003\n",
		"1\u00a02\n1 2\n",
		"\u0085\n1 2\n1 2\n",
		"1 2 1\n+7 1 2\n",
		"1 2\n+1 2\n",
		"+1 +2 +11\n+3 +1 +2\n+4\n+5\n",
		"1 2\n-1 2\n",
		"0001 0002 0011\n0007 001 002\n09\n000000010\n",
		"1 2 11\n1 1 2\n999999999\n1000000000\n",
		"1 2 11\n1 1 2\n9223372036854775807\n9223372036854775808\n",
		"1 2 1\n99999999999999999999 1 2\n",
		"1 2\n1 0000000002\n",
		"1 2\n1 2147483649\n",
		"1 2\n1 99999999999999999999\n",
		"0000000001 2\n1 2\n",
		"1 2 011\n1 1 2\n3\n4\n",
		"1 3 12\n1 2\n5\n6\n7\n",
		"1 3 2\n1 2\n",
		"1 3 -1\n1 2\n",
		"1 2\n1 2 x\n",
		"1 2\n1 2\xff\n",
		"1 2\n1\xc2\n",
		"%\n%%\n\n1 2\n1 2\n",
		"1 2 11\n1 1 2\n-3\n1\n",
		"1 2 1\n0 1 2\n",
		"2 2 1\n5\n5 1 2\n",
		"2 3 11\n5 1 2\n2 2 3\n4\n1\n1\n",
		"% comment\n1 2 1\n-5 1 2\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, gotErr := ParseHGR(strings.NewReader(in), "fuzz")
		want, wantErr := referenceParseHGR(strings.NewReader(in), "fuzz")
		sameParse(t, in, got, gotErr, want, wantErr)
	})
}

// TestParseHGRMatchesReferenceLarge runs the differential check on a
// generated instance large enough to cross the scanner's buffer refills.
func TestParseHGRMatchesReferenceLarge(t *testing.T) {
	text := quarterIBM01Text(t)
	got, gotErr := ParseHGR(strings.NewReader(text), "large")
	want, wantErr := referenceParseHGR(strings.NewReader(text), "large")
	sameParse(t, "<quarter-scale ibm01-like>", got, gotErr, want, wantErr)
}

// quarterIBM01Text is the quarter-scale ibm01-like instance in hMETIS form.
func quarterIBM01Text(t testing.TB) string {
	t.Helper()
	h, err := gen.Generate(gen.Scaled(gen.MustIBMProfile(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteHGR(&sb, h); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func BenchmarkParseHGR(b *testing.B) {
	text := quarterIBM01Text(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseHGR(strings.NewReader(text), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
