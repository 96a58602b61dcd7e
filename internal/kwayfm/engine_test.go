package kwayfm

import (
	"runtime"
	"testing"

	"hgpart/internal/objective"
	"hgpart/internal/rng"
)

// TestEngineMatchesReference: the arena-based Engine must be bit-identical
// to the frozen seed implementation — same RNG stream, same instance, same
// start implies the same final assignment and the same pass/move counts,
// for both objectives and several k.
func TestEngineMatchesReference(t *testing.T) {
	for _, cells := range []int{120, 400} {
		h := instance(t, cells, uint64(cells))
		for _, k := range []int{2, 3, 5} {
			for _, obj := range []Objective{CutObjective, ConnectivityObjective} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := Config{Tolerance: 0.12, Objective: obj}
					aRef := randomAssignment(h, k, seed)
					aOpt := append(objective.Assignment(nil), aRef...)

					refRes, err := RefineReference(h, aRef, k, cfg, rng.New(seed*7))
					if err != nil {
						t.Fatal(err)
					}
					eng, err := NewEngine(h, k, cfg)
					if err != nil {
						t.Fatal(err)
					}
					optRes, err := eng.Refine(aOpt, rng.New(seed*7))
					if err != nil {
						t.Fatal(err)
					}
					if refRes != optRes {
						t.Fatalf("cells=%d k=%d obj=%v seed=%d: results differ:\n  reference: %+v\n  engine:    %+v",
							cells, k, obj, seed, refRes, optRes)
					}
					for v := range aRef {
						if aRef[v] != aOpt[v] {
							t.Fatalf("cells=%d k=%d obj=%v seed=%d: assignments differ at vertex %d: %d vs %d",
								cells, k, obj, seed, v, aRef[v], aOpt[v])
						}
					}
				}
			}
		}
	}
}

// TestEngineReuseMatchesFresh: an engine that has already refined several
// starts must behave exactly like a throwaway one on the next start — no
// state may leak between Refine calls through the arenas.
func TestEngineReuseMatchesFresh(t *testing.T) {
	h := instance(t, 300, 9)
	const k = 4
	cfg := Config{Tolerance: 0.15, Objective: ConnectivityObjective}
	reused, err := NewEngine(h, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for start := uint64(0); start < 6; start++ {
		aReused := randomAssignment(h, k, start)
		aFresh := append(objective.Assignment(nil), aReused...)
		resReused, err := reused.Refine(aReused, rng.New(start+100))
		if err != nil {
			t.Fatal(err)
		}
		resFresh, err := Refine(h, aFresh, k, cfg, rng.New(start+100))
		if err != nil {
			t.Fatal(err)
		}
		if resReused != resFresh {
			t.Fatalf("start %d: reused engine %+v differs from fresh %+v", start, resReused, resFresh)
		}
		for v := range aReused {
			if aReused[v] != aFresh[v] {
				t.Fatalf("start %d: assignments differ at vertex %d", start, v)
			}
		}
	}
}

// TestEngineFinalValueMatchesObjective pins Engine.reset's map-free
// objective computation to the internal/objective implementations.
func TestEngineFinalValueMatchesObjective(t *testing.T) {
	h := instance(t, 250, 17)
	for _, k := range []int{2, 5} {
		for _, obj := range []Objective{CutObjective, ConnectivityObjective} {
			a := randomAssignment(h, k, uint64(k))
			eng, err := NewEngine(h, k, Config{Tolerance: 0.2, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Refine(a, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			switch obj {
			case CutObjective:
				want = objective.CutSize(h, a)
			case ConnectivityObjective:
				want = objective.ConnectivityMinusOne(h, a)
			}
			if res.Final != want {
				t.Fatalf("k=%d obj=%v: engine final %d, objective recount %d", k, obj, res.Final, want)
			}
		}
	}
}

// TestEngineSteadyStateDoesNotAllocate: after the first Refine call has
// sized every arena, further starts on the same engine must not allocate at
// all.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	h := instance(t, 200, 23)
	const k = 3
	eng, err := NewEngine(h, k, Config{Tolerance: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	master := randomAssignment(h, k, 1)
	scratch := make(objective.Assignment, len(master))
	r := rng.New(1)

	// Warm up: size the move stack and container arenas across a few
	// distinct trajectories.
	for i := uint64(0); i < 4; i++ {
		copy(scratch, master)
		r.Seed(i)
		if _, err := eng.Refine(scratch, r); err != nil {
			t.Fatal(err)
		}
	}

	run := uint64(0)
	allocs := testing.AllocsPerRun(5, func() {
		copy(scratch, master)
		r.Seed(run % 4) // replay warmed trajectories only
		run++
		if _, err := eng.Refine(scratch, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Refine allocates %.1f times per start, want 0", allocs)
	}
	runtime.KeepAlive(eng)
}
