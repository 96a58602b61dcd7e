// Package partition maintains 2-way partitioning state over a hypergraph:
// side assignment, per-side areas, per-net side pin counts, the (weighted)
// cut, balance constraints and fixed vertices.
//
// The incremental state here — per-net pin counts by side and an
// incrementally maintained cut — is the substrate every FM variant in
// internal/core builds on. Keeping it separate lets tests cross-check the
// incremental cut against a from-scratch recount (a key invariant).
package partition

import (
	"fmt"

	"hgpart/internal/hypergraph"
	"hgpart/internal/rng"
)

// Free marks a vertex that may be assigned to either side.
const Free int8 = -1

// Balance expresses the paper's balance constraint: each side's total vertex
// weight must lie in [Lo, Hi]. A tolerance of 2% means sides in
// [49%, 51%] of total weight; 10% means [45%, 55%].
type Balance struct {
	Lo, Hi int64
}

// NewBalance converts a fractional tolerance (0.02 for "2%") into absolute
// bounds for a hypergraph of the given total weight.
func NewBalance(totalWeight int64, tolerance float64) Balance {
	half := float64(totalWeight) / 2
	lo := int64(half * (1 - tolerance))
	hi := int64(half*(1+tolerance) + 0.9999)
	if hi > totalWeight {
		hi = totalWeight
	}
	if lo < 0 {
		lo = 0
	}
	return Balance{Lo: lo, Hi: hi}
}

// Slack returns Hi-Lo, the total freedom in side size. A vertex heavier than
// the slack can never move legally once both sides are within bounds; this
// is the threshold behind the paper's corking guard.
func (b Balance) Slack() int64 { return b.Hi - b.Lo }

// Contains reports whether a side area satisfies the constraint.
func (b Balance) Contains(area int64) bool { return area >= b.Lo && area <= b.Hi }

// P is a mutable 2-way partition of a hypergraph.
type P struct {
	H    *hypergraph.Hypergraph
	side []uint8 // 0 or 1 per vertex
	// fixedSide[v] is Free, 0 or 1. Fixed vertices model terminal
	// propagation / pad locations in top-down placement.
	fixedSide []int8

	area  [2]int64
	count [][2]int32 // per-edge pin counts by side
	cut   int64      // weighted cut, maintained incrementally
}

// New allocates partition state for h with every vertex free and on side 0.
// Call Assign or one of the initial-solution generators before partitioning.
// With every pin on side 0 the derived state needs no pin sweep: side 0
// holds the whole area, each net counts its size on side 0, and nothing is
// cut.
func New(h *hypergraph.Hypergraph) *P {
	p := &P{
		H:         h,
		side:      make([]uint8, h.NumVertices()),
		fixedSide: make([]int8, h.NumVertices()),
		count:     make([][2]int32, h.NumEdges()),
		area:      [2]int64{h.TotalVertexWeight(), 0},
	}
	for i := range p.fixedSide {
		p.fixedSide[i] = Free
	}
	for e := range p.count {
		p.count[e][0] = int32(h.EdgeSize(int32(e)))
	}
	return p
}

// NewFixed is New with every non-Free entry of fixed pinned to its side;
// fixed may be nil (nothing pinned).
func NewFixed(h *hypergraph.Hypergraph, fixed []int8) *P {
	p := New(h)
	for v, f := range fixed {
		if f != Free {
			p.Fix(int32(v), f)
		}
	}
	return p
}

// AllFree returns a fixed-side vector of n Free entries.
func AllFree(n int) []int8 {
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = Free
	}
	return fixed
}

// recount rebuilds areas, per-net counts and the cut from the side vector.
func (p *P) recount() {
	p.area = [2]int64{}
	for v := 0; v < p.H.NumVertices(); v++ {
		p.area[p.side[v]] += p.H.VertexWeight(int32(v))
	}
	p.cut = 0
	for e := 0; e < p.H.NumEdges(); e++ {
		var c [2]int32
		for _, v := range p.H.Pins(int32(e)) {
			c[p.side[v]]++
		}
		p.count[e] = c
		if c[0] > 0 && c[1] > 0 {
			p.cut += p.H.EdgeWeight(int32(e))
		}
	}
}

// Assign sets the side of every vertex at once and rebuilds derived state.
// len(sides) must equal the vertex count; entries must be 0 or 1 and must
// agree with any fixed vertices.
func (p *P) Assign(sides []uint8) error {
	if err := p.checkSides("Assign", sides); err != nil {
		return err
	}
	copy(p.side, sides)
	p.recount()
	return nil
}

// Load installs a side vector together with derived state the caller has
// maintained itself — per-net side pin counts, side areas and the cut — by
// copying, with no recount. The sides are checked as Assign checks them;
// the derived state is trusted, which is what lets VerifyPartitionState
// catch a caller whose incremental bookkeeping drifted.
func (p *P) Load(sides []uint8, counts [][2]int32, area [2]int64, cut int64) error {
	if err := p.checkSides("Load", sides); err != nil {
		return err
	}
	if len(counts) != len(p.count) {
		return fmt.Errorf("partition: Load got %d net counts for %d nets", len(counts), len(p.count))
	}
	copy(p.side, sides)
	copy(p.count, counts)
	p.area = area
	p.cut = cut
	return nil
}

// checkSides validates a full side vector: one 0 or 1 per vertex, agreeing
// with every fixed vertex.
func (p *P) checkSides(op string, sides []uint8) error {
	if len(sides) != len(p.side) {
		return fmt.Errorf("partition: %s got %d sides for %d vertices", op, len(sides), len(p.side))
	}
	for v, s := range sides {
		if s > 1 {
			return fmt.Errorf("partition: vertex %d assigned invalid side %d", v, s)
		}
		if f := p.fixedSide[v]; f != Free && uint8(f) != s {
			return fmt.Errorf("partition: vertex %d is fixed to side %d but assigned %d", v, f, s)
		}
	}
	return nil
}

// Side returns the current side of v.
func (p *P) Side(v int32) uint8 { return p.side[v] }

// Sides returns a copy of the full side vector.
func (p *P) Sides() []uint8 {
	cp := make([]uint8, len(p.side))
	copy(cp, p.side)
	return cp
}

// Fix pins vertex v to a side (or frees it with Free). If the current
// assignment disagrees, the vertex is moved.
func (p *P) Fix(v int32, side int8) {
	p.fixedSide[v] = side
	if side != Free && p.side[v] != uint8(side) {
		p.Move(v)
	}
}

// FixedSide returns Free, 0 or 1 for v.
func (p *P) FixedSide(v int32) int8 { return p.fixedSide[v] }

// IsFixed reports whether v may not move.
func (p *P) IsFixed(v int32) bool { return p.fixedSide[v] != Free }

// NumFixed returns how many vertices are fixed.
func (p *P) NumFixed() int {
	n := 0
	for _, f := range p.fixedSide {
		if f != Free {
			n++
		}
	}
	return n
}

// Area returns the total vertex weight currently on side s.
func (p *P) Area(s uint8) int64 { return p.area[s] }

// Cut returns the incrementally maintained weighted cut.
func (p *P) Cut() int64 { return p.cut }

// SideCount returns how many pins of edge e lie on side s.
func (p *P) SideCount(e int32, s uint8) int32 { return p.count[e][s] }

// Counts returns the per-net side pin counts, indexed by edge. The slice is
// the partition's own storage: callers must treat it as read-only.
func (p *P) Counts() [][2]int32 { return p.count }

// Move flips vertex v to the other side, updating areas, per-net counts and
// the cut in O(sum of incident net sizes is NOT required — O(degree)).
// It returns the change in cut (negative is improvement). Fixed vertices may
// not be moved; callers enforce that (the method panics to catch bugs).
func (p *P) Move(v int32) int64 {
	if p.fixedSide[v] != Free && uint8(p.fixedSide[v]) == p.side[v] {
		panic("partition: moving a fixed vertex off its fixed side")
	}
	from := p.side[v]
	to := 1 - from
	w := p.H.VertexWeight(v)
	var delta int64
	for _, e := range p.H.IncidentEdges(v) {
		c := &p.count[e]
		ew := p.H.EdgeWeight(e)
		wasCut := c[0] > 0 && c[1] > 0
		c[from]--
		c[to]++
		isCut := c[0] > 0 && c[1] > 0
		if wasCut && !isCut {
			delta -= ew
		} else if !wasCut && isCut {
			delta += ew
		}
	}
	p.side[v] = to
	p.area[from] -= w
	p.area[to] += w
	p.cut += delta
	return delta
}

// Gain returns the FM gain of moving v: the cut decrease if v flips sides.
// gain(v) = sum over incident nets e of
//
//	+w(e) if v is the only pin of e on its side (net becomes uncut)
//	-w(e) if all pins of e are on v's side      (net becomes cut)
func (p *P) Gain(v int32) int64 {
	from := p.side[v]
	to := 1 - from
	var g int64
	for _, e := range p.H.IncidentEdges(v) {
		c := p.count[e]
		w := p.H.EdgeWeight(e)
		if c[from] == 1 {
			g += w
		}
		if c[to] == 0 {
			g -= w
		}
	}
	return g
}

// CutFromScratch recomputes the weighted cut directly from the side vector,
// ignoring incremental state. Tests use it to validate Move.
func (p *P) CutFromScratch() int64 {
	var cut int64
	for e := 0; e < p.H.NumEdges(); e++ {
		pins := p.H.Pins(int32(e))
		if len(pins) == 0 {
			continue
		}
		s0 := p.side[pins[0]]
		for _, v := range pins[1:] {
			if p.side[v] != s0 {
				cut += p.H.EdgeWeight(int32(e))
				break
			}
		}
	}
	return cut
}

// Legal reports whether both sides satisfy the balance constraint.
func (p *P) Legal(b Balance) bool {
	return b.Contains(p.area[0]) && b.Contains(p.area[1])
}

// MoveLegal reports whether flipping v keeps both sides within b.
func (p *P) MoveLegal(v int32, b Balance) bool {
	if p.fixedSide[v] != Free {
		return false
	}
	from := p.side[v]
	w := p.H.VertexWeight(v)
	return b.Contains(p.area[from]-w) && b.Contains(p.area[1-from]+w)
}

// BalanceViolation returns how far the partition is from feasibility: the
// total amount by which side areas exceed Hi or fall below Lo (0 when legal).
func (p *P) BalanceViolation(b Balance) int64 {
	var viol int64
	for s := 0; s < 2; s++ {
		if p.area[s] > b.Hi {
			viol += p.area[s] - b.Hi
		}
		if p.area[s] < b.Lo {
			viol += b.Lo - p.area[s]
		}
	}
	return viol
}

// Copy returns an independent deep copy of the partition state.
func (p *P) Copy() *P {
	cp := &P{
		H:         p.H,
		side:      make([]uint8, len(p.side)),
		fixedSide: make([]int8, len(p.fixedSide)),
		area:      p.area,
		count:     make([][2]int32, len(p.count)),
		cut:       p.cut,
	}
	copy(cp.side, p.side)
	copy(cp.fixedSide, p.fixedSide)
	copy(cp.count, p.count)
	return cp
}

// RandomBalanced produces a random initial solution respecting fixed
// vertices and attempting to satisfy b: vertices are visited in random order
// (heaviest first among the random blocks would be more robust, but the
// paper's testbenches use plain randomized greedy) and each is placed on the
// side with smaller current area, subject to fixed constraints.
func (p *P) RandomBalanced(r *rng.RNG, b Balance) {
	sides := make([]uint8, len(p.side))
	var area [2]int64
	// Fixed vertices first.
	for v, f := range p.fixedSide {
		if f != Free {
			sides[v] = uint8(f)
			area[f] += p.H.VertexWeight(int32(v))
		}
	}
	order := r.Perm(len(p.side))
	for _, v := range order {
		if p.fixedSide[v] != Free {
			continue
		}
		w := p.H.VertexWeight(int32(v))
		// Random choice when both fit comfortably; otherwise lighter side.
		var s uint8
		if area[0]+w <= b.Hi && area[1]+w <= b.Hi {
			s = uint8(r.Intn(2))
		} else if area[0] <= area[1] {
			s = 0
		} else {
			s = 1
		}
		sides[v] = s
		area[s] += w
	}
	// Repair pass: while one side is under Lo, move the lightest helpful
	// vertices from the heavy side. Simple linear scans suffice because the
	// greedy fill rarely leaves more than a small imbalance.
	for iter := 0; iter < 64; iter++ {
		var light uint8
		if area[0] < b.Lo {
			light = 0
		} else if area[1] < b.Lo {
			light = 1
		} else {
			break
		}
		need := b.Lo - area[light]
		moved := false
		for _, v := range order {
			if p.fixedSide[v] != Free || sides[v] == light {
				continue
			}
			w := p.H.VertexWeight(int32(v))
			if w <= need+(b.Hi-b.Lo) && area[1-light]-w >= b.Lo {
				sides[v] = light
				area[light] += w
				area[1-light] -= w
				moved = true
				if area[light] >= b.Lo {
					break
				}
				need = b.Lo - area[light]
			}
		}
		if !moved {
			break
		}
	}
	if err := p.Assign(sides); err != nil {
		panic(err) // internal construction cannot violate Assign's checks
	}
}
