// Package multilevel implements a multilevel FM hypergraph bisection in the
// style of hMETIS (Karypis, Aggarwal, Kumar, Shekhar, DAC'97) and MLPart:
// FirstChoice-style coarsening by connectivity, initial partitioning at the
// coarsest level, FM refinement during uncoarsening, and optional V-cycles.
//
// In the paper's evaluation this engine plays two roles: the "ML LIFO" /
// "ML CLIP" rows of Table 1 (a strong optimization engine wrapped around the
// flat testbenches, compressing — but not eliminating — the dynamic range of
// the implicit implementation decisions), and the hMetis-1.5 stand-in for
// the multistart evaluations of Tables 4 and 5.
package multilevel

import (
	"sort"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Config parameterizes the multilevel partitioner.
type Config struct {
	// Refine configures the FM engine used for refinement at every level
	// (and for initial-partition polishing at the coarsest level). This is
	// where "ML LIFO" vs "ML CLIP" and the Table 1 knobs plug in. A zero
	// Refine.MaxIdleMoves takes DefaultMaxIdleMoves unless Refine.CLIP is
	// set; a negative one keeps the full pass.
	Refine core.Config

	// CoarsestSize stops coarsening once the level has at most this many
	// vertices. Default 150.
	CoarsestSize int

	// ClusterCapFrac caps cluster weight at this fraction of total vertex
	// weight during matching. Default 0.04. The cap is additionally limited
	// to the balance slack when the slack is not degenerate, so coarsening
	// does not manufacture immovable vertices.
	ClusterCapFrac float64

	// MaxNetSizeForMatch: nets larger than this are ignored when scoring
	// matches (huge clock-like nets carry no clustering signal and make
	// scoring quadratic). Default 64.
	MaxNetSizeForMatch int

	// InitialTries is the number of random initial partitions attempted at
	// the coarsest level; the best refined one is kept. Default 10.
	InitialTries int

	// StallFraction aborts coarsening when a level shrinks by less than
	// this factor (e.g. 0.05 means "stop unless at least 5% fewer
	// vertices"). Default 0.05.
	StallFraction float64

	// Matching selects the coarsening scheme (FirstChoice default; see
	// Matching for the hMETIS-family alternatives). Restricted coarsening
	// (V-cycles, fixed vertices) always uses FirstChoice.
	Matching Matching
}

// DefaultMaxIdleMoves is the early-exit limit multilevel FM refinement gives
// a zero Refine.MaxIdleMoves: a pass ends once it is more than this many
// moves past its best prefix, since nearly every move after that point is
// rolled back. A level with at most this many movable vertices never stops
// early. CLIP refinement keeps the full pass, because there the limit costs
// cut quality (EXPERIMENTS.md, idle-move limit frontier).
const DefaultMaxIdleMoves = 2000

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.Refine.MaxIdleMoves == 0 && !c.Refine.CLIP {
		c.Refine.MaxIdleMoves = DefaultMaxIdleMoves
	}
	if c.CoarsestSize <= 0 {
		c.CoarsestSize = 150
	}
	if c.ClusterCapFrac <= 0 {
		c.ClusterCapFrac = 0.04
	}
	if c.MaxNetSizeForMatch <= 0 {
		c.MaxNetSizeForMatch = 64
	}
	if c.InitialTries <= 0 {
		c.InitialTries = 10
	}
	if c.StallFraction <= 0 {
		c.StallFraction = 0.05
	}
	return c
}

// Stats reports the outcome of one multilevel run.
type Stats struct {
	// Cut is the final weighted cut.
	Cut int64
	// Levels is the depth of the coarsening hierarchy (1 = no coarsening).
	Levels int
	// CoarsestVertices is the vertex count at the coarsest level.
	CoarsestVertices int
	// Work accumulates FM work units over all refinement passes.
	Work int64
	// Moves accumulates FM moves over all refinement passes.
	Moves int64
}

// Partitioner is a reusable multilevel bisector for one hypergraph and
// balance constraint. It owns a scratch FM engine rebound across the levels
// of every start instead of allocated per level, so a Partitioner is not
// safe for concurrent use — the evaluation harness constructs one per
// worker (its factory contract).
type Partitioner struct {
	h   *hypergraph.Hypergraph
	cfg Config
	bal partition.Balance

	scratch *core.Engine
}

// New builds a Partitioner. cfg zero-fields take defaults.
func New(h *hypergraph.Hypergraph, cfg Config, bal partition.Balance) *Partitioner {
	return &Partitioner{h: h, cfg: cfg.withDefaults(), bal: bal}
}

// level is one rung of the coarsening hierarchy: its hypergraph, the map
// from the next-finer level's vertices into it (nil on the finest level),
// and the restriction side and fixed-side vectors projected onto it (nil
// when the start has none).
type level struct {
	h         *hypergraph.Hypergraph
	clusterOf []int32
	sides     []uint8
	fixed     []int8
}

// Partition runs one full multilevel start seeded by r and returns the
// resulting fine-level partition.
func (m *Partitioner) Partition(r *rng.RNG) (*partition.P, Stats) {
	return m.start(nil, r)
}

// PartitionFixed runs one multilevel start honoring fixedSide: entries are
// partition.Free (-1), 0 or 1 per fine-level vertex. The returned partition
// has those vertices fixed (and on their required sides).
//
// Fixed terminals are an input to the one pipeline, not a separate engine
// (the paper's §2.1: in top-down placement almost every instance has
// vertices fixed by terminal propagation or pad locations; Caldwell, Kahng,
// Markov, DAC'99). Matching never merges vertices fixed to different sides,
// clusters inherit their members' fixed sides, and the initial partitions
// and every refinement level pin them. An all-Free vector gives exactly
// Partition's result.
func (m *Partitioner) PartitionFixed(fixedSide []int8, r *rng.RNG) (*partition.P, Stats) {
	if len(fixedSide) != m.h.NumVertices() {
		panic("multilevel: fixedSide length mismatch")
	}
	return m.start(fixedSide, r)
}

// start is the one multilevel start: coarsen, partition the coarsest level,
// uncoarsen. fixed == nil means no pinned vertices.
func (m *Partitioner) start(fixed []int8, r *rng.RNG) (*partition.P, Stats) {
	levels := m.coarsen(r, nil, fixed)
	coarsest := levels[len(levels)-1]
	st := Stats{Levels: len(levels), CoarsestVertices: coarsest.h.NumVertices()}

	p := m.initialPartition(coarsest, r, &st)
	p = m.uncoarsen(p, levels, r, &st)
	st.Cut = p.Cut()
	return p, st
}

// VCycle improves an existing fine-level partition by restricted coarsening
// (clusters never span the cut) followed by refinement during uncoarsening —
// the technique hMetis-1.5 applies to the best of several starts.
func (m *Partitioner) VCycle(p *partition.P, r *rng.RNG) Stats {
	levels := m.coarsen(r, p.Sides(), nil)
	// Matching never crosses the cut, so every cluster has a well-defined
	// side; coarsen projected it.
	coarsest := levels[len(levels)-1]
	st := Stats{Levels: len(levels), CoarsestVertices: coarsest.h.NumVertices()}

	cp := partition.New(coarsest.h)
	if err := cp.Assign(coarsest.sides); err != nil {
		panic(err)
	}
	m.refine(cp, r, &st)
	res := m.uncoarsen(cp, levels, r, &st)

	// Keep the V-cycle result only if it does not worsen the cut.
	if res.Cut() <= p.Cut() {
		if err := p.Assign(res.Sides()); err != nil {
			panic(err)
		}
	}
	st.Cut = p.Cut()
	return st
}

// coarsen builds the hierarchy over m.h, finest first: levels[0] is m.h
// itself, and levels[i].clusterOf maps level i-1's vertices into level i.
// When sides is non-nil, matching only pairs vertices on the same side
// (V-cycle mode); when fixed is non-nil, it never pairs vertices fixed to
// different sides. Both vectors are projected onto every level.
func (m *Partitioner) coarsen(r *rng.RNG, sides []uint8, fixed []int8) []level {
	levels := []level{{h: m.h, sides: sides, fixed: fixed}}
	cap64 := int64(m.cfg.ClusterCapFrac * float64(m.h.TotalVertexWeight()))
	if slack := m.bal.Slack(); slack > m.h.TotalVertexWeight()/200 && slack < cap64 {
		cap64 = slack
	}
	if cap64 < 1 {
		cap64 = 1
	}

	for cur := levels[0]; cur.h.NumVertices() > m.cfg.CoarsestSize; cur = levels[len(levels)-1] {
		clusterOf, numClusters := m.matchWith(cur.h, r, cur.sides, cur.fixed, cap64)
		if float64(cur.h.NumVertices()-numClusters) < m.cfg.StallFraction*float64(cur.h.NumVertices()) {
			break // coarsening stalled
		}
		coarse, _ := cur.h.Contract(clusterOf, numClusters)
		lv := level{h: coarse, clusterOf: clusterOf}
		if cur.sides != nil {
			lv.sides = make([]uint8, numClusters)
			for v, c := range clusterOf {
				lv.sides[c] = cur.sides[v]
			}
		}
		if cur.fixed != nil {
			lv.fixed = partition.AllFree(numClusters)
			for v, c := range clusterOf {
				if f := cur.fixed[v]; f != partition.Free {
					lv.fixed[c] = f // match keeps members compatible
				}
			}
		}
		levels = append(levels, lv)
	}
	return levels
}

// match performs one FirstChoice-style pass: each unmatched vertex, visited
// in random order, merges with the unmatched neighbor sharing the highest
// connectivity score sum(w(e)/(|e|-1)) over common nets, subject to the
// cluster weight cap, (in V-cycle mode) side agreement, and (with fixed
// vertices) fixed-side compatibility — two vertices fixed to different
// sides never merge.
func (m *Partitioner) match(h *hypergraph.Hypergraph, r *rng.RNG, sides []uint8, fixed []int8, cap64 int64) ([]int32, int) {
	n := h.NumVertices()
	clusterOf := make([]int32, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	score := make([]float64, n)
	touched := make([]int32, 0, 128)
	next := int32(0)

	order := r.Perm(n)
	for _, vi := range order {
		v := int32(vi)
		if clusterOf[v] != -1 {
			continue
		}
		touched = touched[:0]
		wv := h.VertexWeight(v)
		for _, e := range h.IncidentEdges(v) {
			sz := h.EdgeSize(e)
			if sz < 2 || sz > m.cfg.MaxNetSizeForMatch {
				continue
			}
			contrib := float64(h.EdgeWeight(e)) / float64(sz-1)
			for _, u := range h.Pins(e) {
				if u == v || clusterOf[u] != -1 {
					continue
				}
				if sides != nil && sides[u] != sides[v] {
					continue
				}
				if fixed != nil && fixed[u] != partition.Free && fixed[v] != partition.Free && fixed[u] != fixed[v] {
					continue
				}
				if wv+h.VertexWeight(u) > cap64 {
					continue
				}
				if score[u] == 0 {
					touched = append(touched, u)
				}
				score[u] += contrib
			}
		}
		var best int32 = -1
		bestScore := 0.0
		for _, u := range touched {
			if score[u] > bestScore {
				bestScore = score[u]
				best = u
			}
			score[u] = 0
		}
		clusterOf[v] = next
		if best != -1 {
			clusterOf[best] = next
		}
		next++
	}
	return clusterOf, int(next)
}

// initialPartition generates InitialTries random balanced solutions at the
// coarsest level, with its fixed vertices pinned, refines each, and keeps
// the best legal one.
func (m *Partitioner) initialPartition(coarsest level, r *rng.RNG, st *Stats) *partition.P {
	eng := m.engineFor(coarsest.h, r.Split())
	var best *partition.P
	var bestCut int64
	for t := 0; t < m.cfg.InitialTries; t++ {
		p := partition.NewFixed(coarsest.h, coarsest.fixed)
		p.RandomBalanced(r.Split(), m.bal)
		res := eng.Run(p)
		st.Work += res.Work
		st.Moves += res.Moves
		if !p.Legal(m.bal) {
			continue
		}
		if best == nil || res.Cut < bestCut {
			best, bestCut = p, res.Cut
		}
	}
	if best == nil {
		// Every try was infeasible (pathological weights); fall back to the
		// last random solution and let refinement legalize what it can.
		best = partition.NewFixed(coarsest.h, coarsest.fixed)
		best.RandomBalanced(r.Split(), m.bal)
	}
	return best
}

// uncoarsen projects p up through the hierarchy, refining at each level.
func (m *Partitioner) uncoarsen(p *partition.P, levels []level, r *rng.RNG, st *Stats) *partition.P {
	for i := len(levels) - 1; i > 0; i-- {
		fine := levels[i-1]
		coarseSides := p.Sides()
		fineSides := make([]uint8, fine.h.NumVertices())
		for v := range fineSides {
			fineSides[v] = coarseSides[levels[i].clusterOf[v]]
		}
		p = partition.NewFixed(fine.h, fine.fixed)
		if err := p.Assign(fineSides); err != nil {
			panic(err)
		}
		m.refine(p, r, st)
	}
	if len(levels) == 1 {
		m.refine(p, r, st)
	}
	return p
}

// refine runs the configured FM engine on p.
func (m *Partitioner) refine(p *partition.P, r *rng.RNG, st *Stats) {
	eng := m.engineFor(p.H, r.Split())
	res := eng.Run(p)
	st.Work += res.Work
	st.Moves += res.Moves
}

// engineFor returns the scratch engine rebound to h with a fresh random
// stream. The r.Split() at each call site preserves the seed
// implementation's draw sequence exactly (it constructed an engine per
// level with a split stream), and Engine.Rebind guarantees a rebound engine
// is indistinguishable from a fresh one — so reusing the arenas changes no
// observable behavior.
func (m *Partitioner) engineFor(h *hypergraph.Hypergraph, r *rng.RNG) *core.Engine {
	if m.scratch == nil {
		m.scratch = core.NewEngine(h, m.cfg.Refine, m.bal, r)
	} else {
		m.scratch.Rebind(h, m.bal, r)
	}
	return m.scratch
}

// SortedClusterSizes returns the multiset of cluster sizes of a matching —
// exposed for tests that verify the matcher produces only singletons and
// pairs.
func SortedClusterSizes(clusterOf []int32, numClusters int) []int {
	counts := make([]int, numClusters)
	for _, c := range clusterOf {
		counts[c]++
	}
	sort.Ints(counts)
	return counts
}
