package core

import (
	"fmt"
	"testing"

	"hgpart/internal/exact"
	"hgpart/internal/hypergraph"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// The differential test layer: the optimized hot path (fm.go) must be
// observably indistinguishable from the frozen seed implementation
// (reference.go) — same seed, same instance, same config implies the same
// move sequence, the same per-move cut trajectory, the same rollbacks and
// the same final partition, not merely the same final cut.

// recorder captures every tracer event so two runs compare move-for-move.
type recorder struct{ events []string }

func (t *recorder) PassStart(pass int, cut int64) {
	t.events = append(t.events, fmt.Sprintf("start %d cut=%d", pass, cut))
}
func (t *recorder) MoveMade(pass int, moveIdx int64, v int32, cut int64) {
	t.events = append(t.events, fmt.Sprintf("move %d.%d v=%d cut=%d", pass, moveIdx, v, cut))
}
func (t *recorder) PassEnd(pass int, bestCut int64, moves int64, rolledBack int) {
	t.events = append(t.events, fmt.Sprintf("end %d best=%d moves=%d rb=%d", pass, bestCut, moves, rolledBack))
}

// differentialConfigs is allConfigs plus the presets and the
// selection-discipline / tie-break variants the tables exercise.
func differentialConfigs() []Config {
	cfgs := allConfigs()
	cfgs = append(cfgs, NaiveConfig(false), NaiveConfig(true), StrongConfig(false), StrongConfig(true))
	lp := StrongConfig(false)
	lp.LookPastIllegal = true
	sb := StrongConfig(true)
	sb.SkipBucketOnly = true
	lb := StrongConfig(false)
	lb.BestTie = LastBest
	ro := NaiveConfig(true)
	ro.Insertion = RandomOrder
	return append(cfgs, lp, sb, lb, ro)
}

// runTraced runs one full FM start and returns the outcome, the final side
// vector and the complete event trace.
func runTraced(h *hypergraph.Hypergraph, cfg Config, bal partition.Balance, pseed, rseed uint64) (Result, []uint8, []string) {
	p := prepared(h, bal, pseed)
	eng := NewEngine(h, cfg, bal, rng.New(rseed))
	rec := &recorder{}
	eng.SetTracer(rec)
	res := eng.Run(p)
	return res, p.Sides(), rec.events
}

func diffTraces(t *testing.T, label string, ref, opt []string) {
	t.Helper()
	for i := 0; i < len(ref) && i < len(opt); i++ {
		if ref[i] != opt[i] {
			t.Fatalf("%s: trace diverges at event %d:\n  reference: %s\n  optimized: %s", label, i, ref[i], opt[i])
		}
	}
	if len(ref) != len(opt) {
		t.Fatalf("%s: trace lengths differ: reference %d, optimized %d", label, len(ref), len(opt))
	}
}

func TestOptimizedMatchesReferenceBitwise(t *testing.T) {
	instances := []*hypergraph.Hypergraph{
		randomGraph(301, 60, 90, 4),
		randomGraph(302, 90, 140, 8), // heavier weight spread: more corking
		localityGraph(303, 80),
	}
	for hi, h := range instances {
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.08)
		for ci, cfg := range differentialConfigs() {
			cfg.CheckInvariants = true
			refCfg := cfg
			refCfg.ReferenceImpl = true
			pseed := uint64(1000*hi + ci)
			rseed := uint64(7*hi + 13*ci + 1)
			refRes, refSides, refTrace := runTraced(h, refCfg, bal, pseed, rseed)
			optRes, optSides, optTrace := runTraced(h, cfg, bal, pseed, rseed)
			label := fmt.Sprintf("instance %d cfg %v", hi, cfg)
			diffTraces(t, label, refTrace, optTrace)
			if refRes != optRes {
				t.Fatalf("%s: results differ:\n  reference: %+v\n  optimized: %+v", label, refRes, optRes)
			}
			for v := range refSides {
				if refSides[v] != optSides[v] {
					t.Fatalf("%s: final side of vertex %d differs: reference %d, optimized %d",
						label, v, refSides[v], optSides[v])
				}
			}
		}
	}
}

func TestReferenceRejectsPostSeedFeatures(t *testing.T) {
	h := randomGraph(310, 20, 30, 2)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	for _, cfg := range []Config{
		{ReferenceImpl: true, LookaheadDepth: 2},
		{ReferenceImpl: true, BoundaryOnly: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEngine accepted reference config %+v", cfg)
				}
			}()
			NewEngine(h, cfg, bal, rng.New(1))
		}()
	}
}

// oracleTracer recounts the cut from scratch via internal/objective after
// every pass; an engine whose incremental cut drifts from the true cut is
// caught at the pass where it happened.
type oracleTracer struct {
	t     *testing.T
	label string
	h     *hypergraph.Hypergraph
	p     *partition.P
}

func (o *oracleTracer) PassStart(int, int64)              {}
func (o *oracleTracer) MoveMade(int, int64, int32, int64) {}
func (o *oracleTracer) PassEnd(pass int, bestCut, moves int64, rolledBack int) {
	if got, want := o.p.Cut(), recountCut(o.h, o.p); got != want {
		o.t.Fatalf("%s: after pass %d incremental cut %d disagrees with objective recount %d",
			o.label, pass, got, want)
	}
}

// recountCut recomputes the weighted cut from the side vector alone,
// through the independent internal/objective implementation.
func recountCut(h *hypergraph.Hypergraph, p *partition.P) int64 {
	a := make(objective.Assignment, h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		a[v] = int32(p.Side(int32(v)))
	}
	return objective.CutSize(h, a)
}

// TestDifferentialOracleTinyInstances drives both engine implementations
// over random <= 12-vertex instances and holds them to two oracles: the cut
// reported after every pass must equal a from-scratch recount via
// internal/objective, and any legal final partition must be bounded below by
// the branch-and-bound optimum from internal/exact (which must agree on
// feasibility).
func TestDifferentialOracleTinyInstances(t *testing.T) {
	cfgs := []Config{
		NaiveConfig(false), NaiveConfig(true),
		StrongConfig(false), StrongConfig(true),
		{Update: NonzeroOnly, Bias: Part0, Insertion: RandomOrder, BestTie: LastBest},
	}
	for seed := uint64(1); seed <= 25; seed++ {
		nv := 4 + int(seed%9) // 4..12 vertices
		h := randomGraph(seed*101, nv, nv+4, 3)
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.30)
		ex, exErr := exact.Bisect(h, bal, exact.Options{})
		for ci, cfg := range cfgs {
			cfg.CheckInvariants = true
			for _, reference := range []bool{false, true} {
				cfg.ReferenceImpl = reference
				label := fmt.Sprintf("seed %d cfg %d reference=%v", seed, ci, reference)
				p := prepared(h, bal, seed^0xabc)
				eng := NewEngine(h, cfg, bal, rng.New(seed+uint64(ci)))
				eng.SetTracer(&oracleTracer{t: t, label: label, h: h, p: p})
				res := eng.Run(p)
				if got := recountCut(h, p); res.Cut != got {
					t.Fatalf("%s: final cut %d disagrees with objective recount %d", label, res.Cut, got)
				}
				if p.Legal(bal) {
					if exErr != nil {
						t.Fatalf("%s: engine found a legal partition but exact says infeasible: %v", label, exErr)
					}
					if res.Cut < ex.Cut {
						t.Fatalf("%s: heuristic cut %d beats proven optimum %d", label, res.Cut, ex.Cut)
					}
				}
			}
		}
	}
}

// TestRebindMatchesFresh: an engine rebound onto a new hypergraph (with
// every arena dirty from a previous start on a different graph) must be
// indistinguishable from a freshly constructed one — the guarantee that lets
// multilevel refinement reuse one scratch engine across all levels.
func TestRebindMatchesFresh(t *testing.T) {
	first := randomGraph(401, 150, 220, 6)
	cfgs := []Config{StrongConfig(false), StrongConfig(true), NaiveConfig(false)}
	ro := StrongConfig(false)
	ro.Insertion = RandomOrder
	cfgs = append(cfgs, ro)
	for ci, cfg := range cfgs {
		cfg.CheckInvariants = true
		for si, second := range []*hypergraph.Hypergraph{
			randomGraph(402, 40, 60, 3),   // shrink
			randomGraph(403, 260, 380, 9), // grow
		} {
			balFirst := partition.NewBalance(first.TotalVertexWeight(), 0.10)
			bal := partition.NewBalance(second.TotalVertexWeight(), 0.10)

			reused := NewEngine(first, cfg, balFirst, rng.New(uint64(ci)))
			pWarm := prepared(first, balFirst, 11)
			reused.Run(pWarm) // dirty every arena
			reused.Rebind(second, bal, rng.New(uint64(ci)+99))

			fresh := NewEngine(second, cfg, bal, rng.New(uint64(ci)+99))

			pA := prepared(second, bal, 21)
			pB := prepared(second, bal, 21)
			recA, recB := &recorder{}, &recorder{}
			reused.SetTracer(recA)
			fresh.SetTracer(recB)
			resA := reused.Run(pA)
			resB := fresh.Run(pB)
			label := fmt.Sprintf("cfg %d graph %d rebind", ci, si)
			diffTraces(t, label, recB.events, recA.events)
			if resA != resB {
				t.Fatalf("%s: rebound engine result %+v differs from fresh %+v", label, resA, resB)
			}
			for v := 0; v < second.NumVertices(); v++ {
				if pA.Side(int32(v)) != pB.Side(int32(v)) {
					t.Fatalf("%s: rebound engine side vector differs at %d", label, v)
				}
			}
		}
	}
}
