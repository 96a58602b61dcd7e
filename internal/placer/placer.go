// Package placer implements top-down recursive min-cut bisection placement
// of standard-cell netlists — the driving application the paper's §2.1
// identifies for hypergraph partitioning research.
//
// The placer recursively bisects layout regions with the library's
// partitioners, alternating cut directions, and uses terminal propagation
// (Dunlop & Kernighan): a net with pins outside the current region
// contributes a zero-weight vertex fixed to the sub-region nearer those
// external pins. This is why, as the paper observes, "almost all hypergraph
// partitioning instances [in placement] have many vertices fixed in
// partitions" — a property absent from the unfixed benchmark suites.
package placer

import (
	"fmt"
	"math"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/kway"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Config controls the placer.
type Config struct {
	// MaxCellsPerRegion stops recursion once a region holds at most this
	// many cells; remaining cells are spread across the region. Default 16.
	MaxCellsPerRegion int
	// Tolerance is the balance tolerance used for every bisection. The
	// paper notes vertical cutlines can sit almost anywhere (2% is typical)
	// while horizontal cutlines need looser tolerances or snapping; we use
	// one tolerance for both. Default 0.1.
	Tolerance float64
	// DisableML forces flat FM for all regions. By default regions larger
	// than MLThreshold use the multilevel engine; smaller regions always use
	// flat FM (ML setup cost dominates on tiny instances).
	DisableML bool
	// MLThreshold is the region size above which ML is used. Default 2000.
	MLThreshold int
	// Refine is the flat engine configuration. Zero value gets
	// core.StrongConfig(false).
	Refine core.Config
	// Quadrisection splits each region four ways at once (Suaris-Kedem)
	// instead of alternating bisections, with quadrant assignment by
	// external-pin attraction.
	Quadrisection bool
	// Seed drives all randomization.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MaxCellsPerRegion <= 0 {
		c.MaxCellsPerRegion = 16
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	if c.MLThreshold <= 0 {
		c.MLThreshold = 2000
	}
	if c.Refine == (core.Config{}) {
		c.Refine = core.StrongConfig(false)
	}
	return c
}

// Placement is the result: a coordinate per cell inside the unit square,
// plus bookkeeping counters.
type Placement struct {
	X, Y []float64
	// Bisections is the number of partitioning calls performed.
	Bisections int
	// FixedTerminalInstances counts bisections that carried at least one
	// propagated terminal — in real flows this is nearly all of them.
	FixedTerminalInstances int
}

// HPWL returns the total half-perimeter wirelength of the placement over
// the netlist h (the standard placement quality metric).
func (pl *Placement) HPWL(h *hypergraph.Hypergraph) float64 {
	var total float64
	for e := 0; e < h.NumEdges(); e++ {
		pins := h.Pins(int32(e))
		if len(pins) < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, v := range pins {
			x, y := pl.X[v], pl.Y[v]
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
		total += float64(h.EdgeWeight(int32(e))) * ((maxX - minX) + (maxY - minY))
	}
	return total
}

type region struct {
	x0, y0, x1, y1 float64
	cells          []int32
	vertical       bool // next cut direction: true splits x
}

// Place runs the top-down flow on h and returns cell coordinates in the
// unit square.
func Place(h *hypergraph.Hypergraph, cfg Config) (*Placement, error) {
	cfg = cfg.withDefaults()
	n := h.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("placer: empty netlist")
	}
	pl := &Placement{X: make([]float64, n), Y: make([]float64, n)}
	r := rng.New(cfg.Seed ^ 0x9d_1ace_0001)

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	walk := hypergraph.NewRegionWalk(h)
	queue := []region{{0, 0, 1, 1, all, true}}
	for len(queue) > 0 {
		reg := queue[0]
		queue = queue[1:]
		if len(reg.cells) <= cfg.MaxCellsPerRegion {
			spread(pl, reg, r)
			continue
		}
		if cfg.Quadrisection && len(reg.cells) > 4*cfg.MaxCellsPerRegion {
			quads := quadrisectRegion(walk, h, pl, reg, cfg, r)
			children := quadrantRegions(reg, quads)
			for qi, child := range children {
				// Stamp quadrant centers for later terminal propagation.
				for _, v := range child.cells {
					pl.X[v] = (child.x0 + child.x1) / 2
					pl.Y[v] = (child.y0 + child.y1) / 2
				}
				_ = qi
				queue = append(queue, child)
			}
			pl.Bisections++
			pl.FixedTerminalInstances++ // attraction assignment used terminals
			continue
		}
		left, right := bisectRegion(walk, h, pl, reg, cfg, r)
		midX := (reg.x0 + reg.x1) / 2
		midY := (reg.y0 + reg.y1) / 2
		if reg.vertical {
			queue = append(queue,
				region{reg.x0, reg.y0, midX, reg.y1, left, false},
				region{midX, reg.y0, reg.x1, reg.y1, right, false})
		} else {
			queue = append(queue,
				region{reg.x0, reg.y0, reg.x1, midY, left, true},
				region{reg.x0, midY, reg.x1, reg.y1, right, true})
		}
		pl.Bisections++
		// Record provisional centers so later terminal propagation can see
		// where this region's cells ended up.
		assignCenters(pl, h, reg, left, right)
	}
	return pl, nil
}

// assignCenters stamps child-region centers onto the cells so that nets
// crossing into not-yet-placed regions have usable external coordinates.
func assignCenters(pl *Placement, h *hypergraph.Hypergraph, reg region, left, right []int32) {
	midX := (reg.x0 + reg.x1) / 2
	midY := (reg.y0 + reg.y1) / 2
	var lx, ly, rx, ry float64
	if reg.vertical {
		lx, ly = (reg.x0+midX)/2, (reg.y0+reg.y1)/2
		rx, ry = (midX+reg.x1)/2, (reg.y0+reg.y1)/2
	} else {
		lx, ly = (reg.x0+reg.x1)/2, (reg.y0+midY)/2
		rx, ry = (reg.x0+reg.x1)/2, (midY+reg.y1)/2
	}
	for _, v := range left {
		pl.X[v], pl.Y[v] = lx, ly
	}
	for _, v := range right {
		pl.X[v], pl.Y[v] = rx, ry
	}
}

// spread distributes a leaf region's cells over its area deterministically.
func spread(pl *Placement, reg region, r *rng.RNG) {
	k := len(reg.cells)
	if k == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(k))))
	w := (reg.x1 - reg.x0) / float64(cols)
	rows := (k + cols - 1) / cols
	hgt := (reg.y1 - reg.y0) / float64(rows)
	for i, v := range reg.cells {
		cx := reg.x0 + (float64(i%cols)+0.5)*w
		cy := reg.y0 + (float64(i/cols)+0.5)*hgt
		pl.X[v] = cx
		pl.Y[v] = cy
	}
}

// bisectRegion extracts the sub-hypergraph induced by the region's cells,
// adds propagated terminals, partitions it and splits the cell list.
func bisectRegion(walk *hypergraph.RegionWalk, h *hypergraph.Hypergraph, pl *Placement, reg region, cfg Config, r *rng.RNG) (left, right []int32) {
	cells := reg.cells
	b := hypergraph.NewBuilder(len(cells)+2, 64)
	b.Name = "region"
	for _, v := range cells {
		b.AddVertex(h.VertexWeight(v))
	}
	// Two zero-weight terminal vertices, fixed to side 0 and side 1.
	t0 := b.AddVertex(0)
	t1 := b.AddVertex(0)

	midX := (reg.x0 + reg.x1) / 2
	midY := (reg.y0 + reg.y1) / 2
	externalSide := func(v int32) uint8 {
		if reg.vertical {
			if pl.X[v] < midX {
				return 0
			}
			return 1
		}
		if pl.Y[v] < midY {
			return 0
		}
		return 1
	}

	hasTerminals := false
	var pins []int32
	walk.Walk(cells, func(e int32, in, out []int32) {
		pins = append(pins[:0], in...)
		var ext [2]bool
		for _, u := range out {
			ext[externalSide(u)] = true
		}
		if ext[0] {
			pins = append(pins, t0)
		}
		if ext[1] {
			pins = append(pins, t1)
		}
		hasTerminals = hasTerminals || len(out) > 0
		if len(pins) >= 2 {
			b.AddEdge(h.EdgeWeight(e), pins...)
		}
	})
	sub := b.MustBuild()
	if hasTerminals {
		pl.FixedTerminalInstances++
	}

	// The propagated terminals stay pinned through every start, coarsening
	// level and refinement pass.
	fixed := partition.AllFree(sub.NumVertices())
	fixed[t0], fixed[t1] = 0, 1
	p := kway.Bisect(sub, fixed, kway.Config{
		Tolerance:   cfg.Tolerance,
		Refine:      cfg.Refine,
		DisableML:   cfg.DisableML,
		MLThreshold: cfg.MLThreshold,
		Starts:      1,
	}, r)
	return kway.SplitCells(cells, p, 1, 1)
}
