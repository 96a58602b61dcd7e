package core

import (
	"errors"
	"fmt"
	"testing"

	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// routeTracer records every event like recorder and classifies each pass's
// rollback by the route Engine.rollback takes for it: undoing the suffix
// (no longer than the kept prefix) or restoring the pass-start snapshot and
// replaying the prefix. A full rollback (no improving prefix, bestIdx -1)
// with moves made is a replay of an empty prefix.
type routeTracer struct {
	recorder
	undo, replay, full int
}

func (t *routeTracer) PassEnd(pass int, bestCut int64, moves int64, rolledBack int) {
	t.recorder.PassEnd(pass, bestCut, moves, rolledBack)
	kept := int(moves) - rolledBack
	switch {
	case rolledBack == 0:
	case rolledBack <= kept:
		t.undo++
	case kept == 0:
		t.full++
	default:
		t.replay++
	}
}

// TestRollbackRoutesMatchReference drives the optimized engine under
// CheckInvariants (every pass copies the mirror into p, and p's counts and
// cut are checked against a recount) across FM, CLIP and every insertion
// order, and holds it move-for-move to the frozen reference. Together the
// runs must take the undo route, the replay route with a non-empty kept
// prefix, and a full rollback.
func TestRollbackRoutesMatchReference(t *testing.T) {
	var cfgs []Config
	for _, clip := range []bool{false, true} {
		for _, ins := range []InsertionOrder{LIFO, FIFO, RandomOrder} {
			cfg := StrongConfig(clip)
			cfg.Insertion = ins
			cfgs = append(cfgs, cfg)
		}
	}
	// A pass that moves every vertex ends where it started (a full swap
	// keeps the cut), so the heavy-weight, tight-tolerance instance is the
	// one whose corked passes end elsewhere and make the snapshot matter.
	instances := []struct {
		h   *hypergraph.Hypergraph
		tol float64
	}{
		{randomGraph(501, 80, 120, 4), 0.10},
		{randomGraph(502, 160, 260, 8), 0.10},
		{localityGraph(503, 120), 0.10},
		{randomGraph(504, 120, 200, 40), 0.02},
	}
	var undo, replay, full int
	for hi, inst := range instances {
		h := inst.h
		bal := partition.NewBalance(h.TotalVertexWeight(), inst.tol)
		for ci, cfg := range cfgs {
			cfg.CheckInvariants = true
			refCfg := cfg
			refCfg.ReferenceImpl = true
			for s := uint64(0); s < 3; s++ {
				pseed := uint64(100*hi+10*ci) + s
				label := fmt.Sprintf("instance %d cfg %v seed %d", hi, cfg, pseed)
				refRes, refSides, refTrace := runTraced(h, refCfg, bal, pseed, pseed+7)

				p := prepared(h, bal, pseed)
				eng := NewEngine(h, cfg, bal, rng.New(pseed+7))
				tr := &routeTracer{}
				eng.SetTracer(tr)
				res := eng.Run(p)
				diffTraces(t, label, refTrace, tr.events)
				if res != refRes {
					t.Fatalf("%s: results differ:\n  reference: %+v\n  optimized: %+v", label, refRes, res)
				}
				for v, side := range refSides {
					if p.Side(int32(v)) != side {
						t.Fatalf("%s: final side of vertex %d differs from the reference", label, v)
					}
				}
				if err := VerifyPartitionState(p); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				undo += tr.undo
				replay += tr.replay
				full += tr.full
			}
		}
	}
	t.Logf("rollbacks: %d undo, %d replay, %d full", undo, replay, full)
	if undo == 0 || replay == 0 || full == 0 {
		t.Fatalf("rollback routes not all exercised: %d undo, %d replay, %d full", undo, replay, full)
	}
}

// TestVerifyPartitionStateCatchesBadLoad: p.Load trusts the counts and cut
// it is handed, so a drifted mirror reaches p intact and the from-scratch
// cross-check must name what is wrong.
func TestVerifyPartitionStateCatchesBadLoad(t *testing.T) {
	h := randomGraph(520, 40, 60, 3)
	bal := partition.NewBalance(h.TotalVertexWeight(), 0.10)
	p := prepared(h, bal, 1)
	sides := p.Sides()
	area := [2]int64{p.Area(0), p.Area(1)}
	counts := append([][2]int32(nil), p.Counts()...)

	badCounts := append([][2]int32(nil), counts...)
	badCounts[7][0]++
	badCounts[7][1]--
	cases := []struct {
		kind   string
		counts [][2]int32
		cut    int64
	}{
		{"net-counts", badCounts, p.Cut()},
		{"cut", counts, p.Cut() + 1},
	}
	for _, c := range cases {
		q := partition.New(h)
		if err := q.Load(sides, c.counts, area, c.cut); err != nil {
			t.Fatal(err)
		}
		var iv *InvariantViolation
		if err := VerifyPartitionState(q); !errors.As(err, &iv) || iv.Kind != c.kind {
			t.Fatalf("corrupted %s: VerifyPartitionState returned %v", c.kind, err)
		}
	}
	q := partition.New(h)
	if err := q.Load(sides, counts, area, p.Cut()); err != nil {
		t.Fatal(err)
	}
	if err := VerifyPartitionState(q); err != nil {
		t.Fatalf("faithful Load: %v", err)
	}
}
