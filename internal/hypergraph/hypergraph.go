// Package hypergraph provides the weighted hypergraph representation used by
// all partitioning engines in this library.
//
// A hypergraph H = (V, E) has integer-weighted vertices (standard-cell or
// macro areas in the VLSI context) and integer-weighted hyperedges (nets).
// The representation is a compressed sparse row (CSR) layout in both
// directions: edge -> pins and vertex -> incident edges. This is the layout
// used by serious partitioning codes (hMETIS, MLPart, KaHyPar): it is
// compact, cache-friendly and makes the inner loops of Fiduccia–Mattheyses
// gain updates allocation-free.
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
)

// Hypergraph is an immutable weighted hypergraph in CSR form. Construct one
// with a Builder (or netlist parsers / the synthetic generator, which use a
// Builder internally). Immutability after Build is what lets partitioners
// share one instance across concurrent multistart trials.
type Hypergraph struct {
	// Name identifies the instance in reports (e.g. "ibm01-like").
	Name string

	vertexWeight []int64
	edgeWeight   []int64

	eptr []int32 // len numEdges+1; pins of edge e are eind[eptr[e]:eptr[e+1]]
	eind []int32
	vptr []int32 // len numVertices+1; edges of v are vind[vptr[v]:vptr[v+1]]
	vind []int32

	totalVertexWeight int64
	maxVertexWeight   int64
	maxEdgeSize       int
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.vertexWeight) }

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int { return len(h.edgeWeight) }

// NumPins returns the total number of (vertex, edge) incidences.
func (h *Hypergraph) NumPins() int { return len(h.eind) }

// Pins returns the vertices of edge e. The returned slice aliases internal
// storage and must not be modified.
func (h *Hypergraph) Pins(e int32) []int32 { return h.eind[h.eptr[e]:h.eptr[e+1]] }

// IncidentEdges returns the edges incident to vertex v. The returned slice
// aliases internal storage and must not be modified.
func (h *Hypergraph) IncidentEdges(v int32) []int32 { return h.vind[h.vptr[v]:h.vptr[v+1]] }

// VertexWeight returns the weight (area) of vertex v.
func (h *Hypergraph) VertexWeight(v int32) int64 { return h.vertexWeight[v] }

// EdgeWeight returns the weight of edge e.
func (h *Hypergraph) EdgeWeight(e int32) int64 { return h.edgeWeight[e] }

// EdgeSize returns the number of pins of edge e.
func (h *Hypergraph) EdgeSize(e int32) int { return int(h.eptr[e+1] - h.eptr[e]) }

// Degree returns the number of edges incident to v.
func (h *Hypergraph) Degree(v int32) int { return int(h.vptr[v+1] - h.vptr[v]) }

// TotalVertexWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalVertexWeight() int64 { return h.totalVertexWeight }

// MaxVertexWeight returns the largest single vertex weight.
func (h *Hypergraph) MaxVertexWeight() int64 { return h.maxVertexWeight }

// MaxEdgeSize returns the largest net size.
func (h *Hypergraph) MaxEdgeSize() int { return h.maxEdgeSize }

// MaxWeightedDegree returns max over vertices of the sum of incident edge
// weights. This bounds the absolute value of any FM gain and therefore sizes
// the gain bucket array.
func (h *Hypergraph) MaxWeightedDegree() int64 {
	var best int64
	for v := 0; v < h.NumVertices(); v++ {
		var s int64
		for _, e := range h.IncidentEdges(int32(v)) {
			s += h.edgeWeight[e]
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Validate checks structural invariants: monotone CSR offsets, pin indices
// in range, cross-consistency between the two adjacency directions, and
// positive weights. It is used by tests and by the netlist parsers.
func (h *Hypergraph) Validate() error {
	nv, ne := h.NumVertices(), h.NumEdges()
	if len(h.eptr) != ne+1 || len(h.vptr) != nv+1 {
		return errors.New("hypergraph: CSR offset arrays have wrong length")
	}
	if h.eptr[0] != 0 || h.vptr[0] != 0 {
		return errors.New("hypergraph: CSR offsets must start at 0")
	}
	for e := 0; e < ne; e++ {
		if h.eptr[e+1] < h.eptr[e] {
			return fmt.Errorf("hypergraph: eptr not monotone at edge %d", e)
		}
		if h.edgeWeight[e] <= 0 {
			return fmt.Errorf("hypergraph: edge %d has non-positive weight", e)
		}
	}
	for v := 0; v < nv; v++ {
		if h.vptr[v+1] < h.vptr[v] {
			return fmt.Errorf("hypergraph: vptr not monotone at vertex %d", v)
		}
		if h.vertexWeight[v] < 0 {
			return fmt.Errorf("hypergraph: vertex %d has negative weight", v)
		}
	}
	if int(h.eptr[ne]) != len(h.eind) {
		return errors.New("hypergraph: eptr end does not match eind length")
	}
	if int(h.vptr[nv]) != len(h.vind) {
		return errors.New("hypergraph: vptr end does not match vind length")
	}
	for _, p := range h.eind {
		if p < 0 || int(p) >= nv {
			return fmt.Errorf("hypergraph: pin vertex %d out of range", p)
		}
	}
	for _, e := range h.vind {
		if e < 0 || int(e) >= ne {
			return fmt.Errorf("hypergraph: incident edge %d out of range", e)
		}
	}
	// Cross-consistency: count incidences both ways.
	if len(h.eind) != len(h.vind) {
		return errors.New("hypergraph: pin count mismatch between directions")
	}
	seen := make(map[[2]int32]int, len(h.eind))
	for e := 0; e < ne; e++ {
		for _, v := range h.Pins(int32(e)) {
			seen[[2]int32{int32(e), v}]++
		}
	}
	for v := 0; v < nv; v++ {
		for _, e := range h.IncidentEdges(int32(v)) {
			seen[[2]int32{e, int32(v)}]--
		}
	}
	for k, c := range seen {
		if c != 0 {
			return fmt.Errorf("hypergraph: incidence (edge %d, vertex %d) inconsistent between directions", k[0], k[1])
		}
	}
	return nil
}

// Builder accumulates vertices and nets and produces an immutable
// Hypergraph. Pins of a net are deduplicated; nets that end up with fewer
// than two distinct pins are dropped (they can never be cut).
type Builder struct {
	Name          string
	vertexWeights []int64
	edgeWeights   []int64
	pinOff        []int32 // pins of net e are pinData[pinOff[e]:pinOff[e+1]]; empty before the first AddEdge
	pinData       []int32
	KeepSingleton bool // retain nets with <2 pins (parsers may want exact counts)
}

// NewBuilder returns a Builder with capacity hints.
func NewBuilder(vertexHint, edgeHint int) *Builder {
	return &Builder{
		vertexWeights: make([]int64, 0, vertexHint),
		edgeWeights:   make([]int64, 0, edgeHint),
		pinOff:        make([]int32, 0, edgeHint+1),
		pinData:       make([]int32, 0, 4*edgeHint),
	}
}

// AddVertex appends a vertex with the given weight and returns its index.
func (b *Builder) AddVertex(weight int64) int32 {
	b.vertexWeights = append(b.vertexWeights, weight)
	return int32(len(b.vertexWeights) - 1)
}

// AddVertices appends n vertices of uniform weight and returns the index of
// the first.
func (b *Builder) AddVertices(n int, weight int64) int32 {
	first := int32(len(b.vertexWeights))
	for i := 0; i < n; i++ {
		b.vertexWeights = append(b.vertexWeights, weight)
	}
	return first
}

// SetVertexWeight overrides the weight of an existing vertex.
func (b *Builder) SetVertexWeight(v int32, weight int64) { b.vertexWeights[v] = weight }

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.vertexWeights) }

// AddEdge appends a net with the given weight and pins and returns its index.
// The pin slice is copied.
func (b *Builder) AddEdge(weight int64, pins ...int32) int32 {
	if len(b.pinOff) == 0 {
		b.pinOff = append(b.pinOff, 0)
	}
	b.pinData = append(b.pinData, pins...)
	b.pinOff = append(b.pinOff, int32(len(b.pinData)))
	b.edgeWeights = append(b.edgeWeights, weight)
	return int32(len(b.edgeWeights) - 1)
}

// netPins returns the pins of net e as added (possibly repeated, unsorted).
func (b *Builder) netPins(e int) []int32 { return b.pinData[b.pinOff[e]:b.pinOff[e+1]] }

// Build validates the accumulated data and produces the CSR hypergraph.
func (b *Builder) Build() (*Hypergraph, error) {
	nv := len(b.vertexWeights)
	for v, w := range b.vertexWeights {
		if w < 0 {
			return nil, fmt.Errorf("hypergraph: vertex %d has negative weight %d", v, w)
		}
	}
	for e, w := range b.edgeWeights {
		for _, p := range b.netPins(e) {
			if p < 0 || int(p) >= nv {
				return nil, fmt.Errorf("hypergraph: net %d references vertex %d outside [0,%d)", e, p, nv)
			}
		}
		if w <= 0 {
			return nil, fmt.Errorf("hypergraph: net %d has non-positive weight %d", e, w)
		}
	}

	// Copy each net into the pin array and deduplicate it there, in place;
	// drop degenerate nets unless KeepSingleton.
	h := &Hypergraph{Name: b.Name, vertexWeight: slices.Clone(b.vertexWeights)}
	h.edgeWeight = make([]int64, 0, len(b.edgeWeights))
	h.eptr = append(make([]int32, 0, len(b.edgeWeights)+1), 0)
	h.eind = make([]int32, len(b.pinData))
	n := 0
	for e, w := range b.edgeWeights {
		pins := b.netPins(e)
		net := h.eind[n : n+len(pins)]
		copy(net, pins)
		if net = dedupPins(net); len(net) < 2 && !b.KeepSingleton {
			continue
		}
		n += len(net)
		h.eptr = append(h.eptr, int32(n))
		h.edgeWeight = append(h.edgeWeight, w)
	}
	h.eind = h.eind[:n]
	h.finish()
	return h, nil
}

// dedupPins sorts ps and removes repeats, in place.
func dedupPins(ps []int32) []int32 {
	slices.Sort(ps)
	return slices.Compact(ps)
}

// finish derives the rest of h from vertexWeight, edgeWeight, eptr and eind:
// the vertex -> edges direction (a counting-sort transpose, so each vertex
// lists its edges in ascending order) and the cached maxima and totals.
func (h *Hypergraph) finish() {
	nv := len(h.vertexWeight)
	h.vptr = make([]int32, nv+1)
	for _, v := range h.eind {
		h.vptr[v+1]++
	}
	for v := 0; v < nv; v++ {
		h.vptr[v+1] += h.vptr[v]
	}
	h.vind = make([]int32, len(h.eind))
	next := slices.Clone(h.vptr[:nv])
	for e := range h.edgeWeight {
		for _, v := range h.Pins(int32(e)) {
			h.vind[next[v]] = int32(e)
			next[v]++
		}
		h.maxEdgeSize = max(h.maxEdgeSize, h.EdgeSize(int32(e)))
	}
	for _, w := range h.vertexWeight {
		h.totalVertexWeight += w
		h.maxVertexWeight = max(h.maxVertexWeight, w)
	}
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are constructed to be valid.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}
