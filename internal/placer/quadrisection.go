package placer

import (
	"math"
	"slices"

	"hgpart/internal/hypergraph"
	"hgpart/internal/kway"
	"hgpart/internal/rng"
)

// Quadrisection (Suaris & Kedem, ICCAD'87 — reference [35] of the paper)
// splits a region into four quadrants with one joint 4-way partitioning
// instead of two sequential bisections, avoiding the horizontal/vertical
// ordering bias. This implementation partitions the region's induced
// sub-hypergraph 4 ways (recursive bisection + direct k-way refinement),
// then assigns the four parts to the four quadrants by exhaustively
// choosing, among the 24 permutations, the one minimizing attraction cost
// to external pins — the terminal-propagation step of the quadrisection
// flow.

// quadrisectRegion splits reg's cells into four child quadrant cell lists
// (ordered: SW, SE, NW, NE).
func quadrisectRegion(walk *hypergraph.RegionWalk, h *hypergraph.Hypergraph, pl *Placement, reg region, cfg Config, r *rng.RNG) [4][]int32 {
	cells := reg.cells
	// Induced sub-hypergraph. A net with external pins also records its
	// local pins and the centroid of its external pins (already-placed
	// estimates) for the quadrant-assignment step.
	b := hypergraph.NewBuilder(len(cells), len(cells))
	b.Name = "quad-region"
	for _, v := range cells {
		b.AddVertex(h.VertexWeight(v))
	}
	type extNet struct {
		w, cx, cy float64
		pins      []int32 // local pins
	}
	var externals []extNet
	walk.Walk(cells, func(e int32, in, out []int32) {
		if len(in) >= 2 {
			b.AddEdge(h.EdgeWeight(e), in...)
		}
		if len(out) == 0 {
			return
		}
		var cx, cy float64
		for _, u := range out {
			cx += pl.X[u]
			cy += pl.Y[u]
		}
		n := float64(len(out))
		externals = append(externals, extNet{w: float64(h.EdgeWeight(e)), cx: cx / n, cy: cy / n, pins: slices.Clone(in)})
	})
	sub := b.MustBuild()

	res, err := kway.Partition(sub, 4, kway.Config{
		Tolerance:    cfg.Tolerance,
		Refine:       cfg.Refine,
		DisableML:    cfg.DisableML,
		MLThreshold:  cfg.MLThreshold,
		DirectRefine: true,
	}, r.Split())
	if err != nil {
		// Fall back to a size split (degenerate regions).
		var out [4][]int32
		q := (len(cells) + 3) / 4
		for i, v := range cells {
			out[min4(i/q)] = append(out[min4(i/q)], v)
		}
		return out
	}

	// Quadrant centers (SW, SE, NW, NE).
	midX := (reg.x0 + reg.x1) / 2
	midY := (reg.y0 + reg.y1) / 2
	qx := [4]float64{(reg.x0 + midX) / 2, (midX + reg.x1) / 2, (reg.x0 + midX) / 2, (midX + reg.x1) / 2}
	qy := [4]float64{(reg.y0 + midY) / 2, (reg.y0 + midY) / 2, (midY + reg.y1) / 2, (midY + reg.y1) / 2}

	// attraction[p][q]: cost of placing part p in quadrant q = summed
	// distance from q's center to each external net's external centroid,
	// for nets touching part p.
	var attraction [4][4]float64
	for _, en := range externals {
		// Which parts does this net touch inside the region?
		var touches [4]bool
		for _, lp := range en.pins {
			touches[res.Parts[lp]] = true
		}
		for p := 0; p < 4; p++ {
			if !touches[p] {
				continue
			}
			for q := 0; q < 4; q++ {
				attraction[p][q] += en.w * (math.Abs(qx[q]-en.cx) + math.Abs(qy[q]-en.cy))
			}
		}
	}

	// Best of the 24 part->quadrant permutations.
	perms := permutations4()
	bestPerm := perms[0]
	bestCost := math.Inf(1)
	for _, perm := range perms {
		var cost float64
		for p := 0; p < 4; p++ {
			cost += attraction[p][perm[p]]
		}
		if cost < bestCost {
			bestCost = cost
			bestPerm = perm
		}
	}

	var out [4][]int32
	for i, v := range cells {
		out[bestPerm[res.Parts[i]]] = append(out[bestPerm[res.Parts[i]]], v)
	}
	return out
}

func min4(i int) int {
	if i > 3 {
		return 3
	}
	return i
}

// permutations4 enumerates the 24 permutations of {0,1,2,3}.
func permutations4() [][4]int {
	var out [][4]int
	var rec func(cur []int, used [4]bool)
	rec = func(cur []int, used [4]bool) {
		if len(cur) == 4 {
			var p [4]int
			copy(p[:], cur)
			out = append(out, p)
			return
		}
		for i := 0; i < 4; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, [4]bool{})
	return out
}

// quadrantRegions returns the four child regions of reg (SW, SE, NW, NE),
// each set to start with a vertical cut.
func quadrantRegions(reg region, quads [4][]int32) []region {
	midX := (reg.x0 + reg.x1) / 2
	midY := (reg.y0 + reg.y1) / 2
	return []region{
		{reg.x0, reg.y0, midX, midY, quads[0], true},
		{midX, reg.y0, reg.x1, midY, quads[1], true},
		{reg.x0, midY, midX, reg.y1, quads[2], true},
		{midX, midY, reg.x1, reg.y1, quads[3], true},
	}
}
