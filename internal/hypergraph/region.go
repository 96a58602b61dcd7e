package hypergraph

// RegionWalk visits the nets of one hypergraph that touch a cell subset —
// a placement region, a recursive-bisection block, a Rent block — the walk
// every "sub-hypergraph induced on these cells" instance starts from. Its
// scratch is sized to the hypergraph once, so each Walk costs time in
// proportion to the subset's pins, not to |V|, and allocates nothing once
// its pin buffers have grown to the largest net seen. A RegionWalk is not
// safe for concurrent use.
type RegionWalk struct {
	h      *Hypergraph
	local  []int32  // index of v in the current cells, where vstamp[v] == stamp
	vstamp []uint32 // stamp of the walk whose cells contain v
	estamp []uint32 // stamp of the walk that last visited e
	stamp  uint32
	in     []int32
	out    []int32
}

// NewRegionWalk returns a walker over h.
func NewRegionWalk(h *Hypergraph) *RegionWalk {
	return &RegionWalk{
		h:      h,
		local:  make([]int32, h.NumVertices()),
		vstamp: make([]uint32, h.NumVertices()),
		estamp: make([]uint32, h.NumEdges()),
	}
}

// Walk calls visit once for each net with a pin in cells, in first-touch
// order: cells in order, and each cell's incident nets in order. in holds
// the net's pins inside the region as indices into cells, out its pins
// outside the region as vertices of h, both in pin order. The slices are
// reused by the next net; visit must copy what it keeps. cells must not
// repeat a vertex.
func (w *RegionWalk) Walk(cells []int32, visit func(e int32, in, out []int32)) {
	w.stamp++
	if w.stamp == 0 { // wrapped: forget every earlier walk
		clear(w.vstamp)
		clear(w.estamp)
		w.stamp = 1
	}
	for i, v := range cells {
		w.vstamp[v] = w.stamp
		w.local[v] = int32(i)
	}
	for _, v := range cells {
		for _, e := range w.h.IncidentEdges(v) {
			if w.estamp[e] == w.stamp {
				continue
			}
			w.estamp[e] = w.stamp
			in, out := w.in[:0], w.out[:0]
			for _, u := range w.h.Pins(e) {
				if w.vstamp[u] == w.stamp {
					in = append(in, w.local[u])
				} else {
					out = append(out, u)
				}
			}
			w.in, w.out = in, out
			visit(e, in, out)
		}
	}
}
