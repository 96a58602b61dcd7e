// Package netlist reads and writes the two file formats relevant to the
// paper's experimental context:
//
//   - the hMETIS .hgr hypergraph format (Karypis & Kumar), the lingua
//     franca of partitioning research, and
//   - the ISPD98 benchmark-suite .netD/.net + .are netlist format (Alpert),
//     in which the IBM instances the paper evaluates were distributed.
//
// With these parsers the experiment drivers run unchanged on the real
// ISPD98 files when the user supplies them; the bundled experiments use
// synthetic stand-ins from internal/gen.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"hgpart/internal/hypergraph"
)

// ParseHGR reads an hMETIS-format hypergraph:
//
//	% comment lines are ignored
//	<numHyperedges> <numVertices> [fmt]
//	one line per hyperedge: [weight] v1 v2 ... (1-indexed vertices)
//	if fmt has vertex weights, numVertices weight lines follow
//
// fmt is 0 (default, unweighted), 1 (edge weights), 10 (vertex weights) or
// 11 (both); any other value is rejected.
//
// All failures are *ParseError values with Format "hgr".
func ParseHGR(r io.Reader, name string) (*hypergraph.Hypergraph, error) {
	h, err := parseHGR(r, name)
	return h, wrapParse("hgr", name, err)
}

func parseHGR(r io.Reader, name string) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64*1024*1024)

	// nextLine returns the tokens of the next non-blank, non-comment line.
	// They alias the scanner's buffer and are valid until the next call.
	var tokens [][]byte
	nextLine := func() ([][]byte, error) {
		for sc.Scan() {
			tokens = splitFields(tokens[:0], sc.Bytes())
			if len(tokens) == 0 || tokens[0][0] == '%' {
				continue
			}
			return tokens, nil
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
	numEdges, err := atoi(header[0])
	if err != nil {
		return nil, fmt.Errorf("netlist: hgr edge count: %w", err)
	}
	numVertices, err := atoi(header[1])
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
		format, err = atoi(header[2])
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

	var pins []int32
	for e := 0; e < numEdges; e++ {
		fields, err := nextLine()
		if err != nil {
			return nil, fmt.Errorf("netlist: hgr edge %d: %w", e+1, err)
		}
		w := int64(1)
		if edgeWeighted {
			w, err = parseInt64(fields[0])
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr edge %d weight: %w", e+1, err)
			}
			fields = fields[1:]
		}
		pins = pins[:0]
		for _, f := range fields {
			v, err := atoi(f)
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
			w, err := parseInt64(fields[0])
			if err != nil {
				return nil, fmt.Errorf("netlist: hgr vertex weight %d: %w", v+1, err)
			}
			b.SetVertexWeight(int32(v), w)
		}
	}
	return b.Build()
}

// splitFields appends the whitespace-separated fields of line to dst,
// splitting exactly as strings.Fields does. ASCII lines are split in place;
// a line with any other byte goes through strings.Fields itself, so Unicode
// spaces (U+0085, U+00A0, ...) separate fields as they always have.
func splitFields(dst [][]byte, line []byte) [][]byte {
	n, start := len(dst), -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			dst = dst[:n]
			for _, f := range strings.Fields(string(line)) {
				dst = append(dst, []byte(f))
			}
			return dst
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi is strconv.Atoi(string(tok)) without the conversion for the common
// token: one to nine plain digits, which cannot overflow. Anything else
// (signs, longer tokens, junk) goes to strconv, so values and error
// messages are strconv's own.
func atoi(tok []byte) (int, error) {
	if v, ok := plainDigits(tok); ok {
		return v, nil
	}
	return strconv.Atoi(string(tok))
}

// parseInt64 is strconv.ParseInt(string(tok), 10, 64) with atoi's fast path.
func parseInt64(tok []byte) (int64, error) {
	if v, ok := plainDigits(tok); ok {
		return int64(v), nil
	}
	return strconv.ParseInt(string(tok), 10, 64)
}

// plainDigits parses tok if it is one to nine ASCII digits.
func plainDigits(tok []byte) (int, bool) {
	if len(tok) == 0 || len(tok) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// WriteHGR writes h in hMETIS format with both edge and vertex weights
// (fmt 11): a "%" comment line naming the instance, then the canonical form
// WriteCanonicalHGR writes.
func WriteHGR(w io.Writer, h *hypergraph.Hypergraph) error {
	if _, err := fmt.Fprintf(w, "%% %s: %d nets, %d cells, %d pins\n", h.Name, h.NumEdges(), h.NumVertices(), h.NumPins()); err != nil {
		return err
	}
	return WriteCanonicalHGR(w, h)
}

// WriteCanonicalHGR writes the canonical hMETIS form of h: the fmt-11
// header, one "weight pin..." line per net with 1-indexed pins, then one
// weight line per vertex. It has no name and no comment, so it depends on
// the structure and weights alone; its SHA-256 is the instance identity the
// hgserved result cache and job journals are keyed by, and any change to
// these bytes orphans every stored entry.
func WriteCanonicalHGR(w io.Writer, h *hypergraph.Hypergraph) error {
	const chunk = 32 << 10 // flush threshold; a number and its separator fit in the slack
	buf := make([]byte, 0, chunk+32)
	var err error
	num := func(v int64) {
		if len(buf) >= chunk {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	num(int64(h.NumEdges()))
	buf = append(buf, ' ')
	num(int64(h.NumVertices()))
	buf = append(buf, " 11\n"...)
	for e := 0; e < h.NumEdges(); e++ {
		num(h.EdgeWeight(int32(e)))
		for _, v := range h.Pins(int32(e)) {
			buf = append(buf, ' ')
			num(int64(v) + 1)
		}
		buf = append(buf, '\n')
	}
	for v := 0; v < h.NumVertices(); v++ {
		num(h.VertexWeight(int32(v)))
		buf = append(buf, '\n')
	}
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}
