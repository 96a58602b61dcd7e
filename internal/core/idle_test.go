package core

import (
	"fmt"
	"strings"
	"testing"

	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// TestIdleLimitMatchesReference: with Config.MaxIdleMoves small enough to
// end passes early, the optimized and frozen reference passes still agree
// move for move, rollback for rollback, and on the final partition.
func TestIdleLimitMatchesReference(t *testing.T) {
	instances := []*hypergraph.Hypergraph{
		randomGraph(311, 90, 140, 8),
		localityGraph(312, 80),
	}
	ended := 0
	for hi, h := range instances {
		bal := partition.NewBalance(h.TotalVertexWeight(), 0.08)
		for ci, cfg := range differentialConfigs() {
			for _, limit := range []int{3, 15} {
				cfg.MaxIdleMoves = limit
				cfg.CheckInvariants = true
				refCfg := cfg
				refCfg.ReferenceImpl = true
				pseed := uint64(1000*hi + ci)
				rseed := uint64(7*hi + 13*ci + limit)
				refRes, refSides, refTrace := runTraced(h, refCfg, bal, pseed, rseed)
				optRes, optSides, optTrace := runTraced(h, cfg, bal, pseed, rseed)
				label := fmt.Sprintf("instance %d cfg %v limit %d", hi, cfg, limit)
				diffTraces(t, label, refTrace, optTrace)
				if refRes != optRes {
					t.Fatalf("%s: results differ:\n  reference: %+v\n  optimized: %+v", label, refRes, optRes)
				}
				for v := range refSides {
					if refSides[v] != optSides[v] {
						t.Fatalf("%s: final side of vertex %d differs", label, v)
					}
				}
				for _, ev := range optTrace {
					if strings.HasPrefix(ev, "end ") && strings.HasSuffix(ev, fmt.Sprintf(" rb=%d", limit+1)) {
						ended++
					}
				}
			}
		}
	}
	if ended == 0 {
		t.Fatal("no pass rolled back exactly limit+1 moves: the limit never ended a pass")
	}
}

// TestIdleLimitIsNotStuck: a pass the limit ends is not a stuck termination.
// Unguarded FM on the corking instance gets stuck in most single passes; a
// limited pass follows the full pass's move sequence, so one that ends
// sooner was ended by the limit and must not count as stuck.
func TestIdleLimitIsNotStuck(t *testing.T) {
	h, bal := corkingInstance()
	r := rng.New(5)
	cut := 0
	for i := 0; i < 20; i++ {
		pseed := r.Uint64()
		run := func(limit int) Result {
			cfg := StrongConfig(false)
			cfg.CorkGuard = false
			cfg.MaxPasses = 1
			cfg.MaxIdleMoves = limit
			p := partition.New(h)
			p.RandomBalanced(rng.New(pseed), bal)
			return NewEngine(h, cfg, bal, rng.New(1)).Run(p)
		}
		full, limited := run(0), run(2)
		if limited.Moves >= full.Moves {
			continue
		}
		if full.StuckTerminations == 1 {
			cut++
		}
		if limited.StuckTerminations != 0 {
			t.Fatalf("run %d: pass ended by the limit after %d moves counted as stuck", i, limited.Moves)
		}
	}
	if cut == 0 {
		t.Fatal("the limit never cut a stuck pass short")
	}
}
