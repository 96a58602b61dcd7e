// The seed FM pass, frozen verbatim as the differential-testing oracle for
// the optimized hot path in fm.go.
//
// DO NOT OPTIMIZE OR OTHERWISE EDIT THIS FILE. Selecting Config.ReferenceImpl
// runs these routines on gain.LegacyContainer — the straightforward
// implementation the seed test suite and the paper-reproduction experiments
// were validated against. The optimized engine must produce bit-identical
// move sequences, cuts, work counts and cork traces (see reference_test.go
// and cmd/hgpart/determinism_test.go); cmd/hgbench times this path to report
// an honest baseline-vs-optimized speedup.
//
// The reference engine covers the full Table 1–5 configuration space (CLIP,
// Update, Bias, Insertion, BestTie, CorkGuard, LookPastIllegal,
// SkipBucketOnly). It deliberately omits the two post-seed extensions —
// Krishnamurthy lookahead and boundary-only refinement — which NewEngine
// rejects under ReferenceImpl. The one post-seed edit is the early-exit
// check of Config.MaxIdleMoves, which multilevel refinement sets by default:
// without it the reference and optimized paths would part ways on every
// large level.
package core

import (
	"math"

	"hgpart/internal/partition"
)

// referencePass is the seed Engine.pass running on the legacy gain container.
func (e *Engine) referencePass(p *partition.P, passNo int) (improved bool, moves int64, stuck bool) {
	e.refCont.Clear()
	for i := range e.locked {
		e.locked[i] = false
	}
	e.moveStack = e.moveStack[:0]

	slack := e.bal.Slack()
	n := e.h.NumVertices()
	for v := 0; v < n; v++ {
		vv := int32(v)
		if p.IsFixed(vv) {
			continue
		}
		if e.cfg.CorkGuard && e.h.VertexWeight(vv) > slack {
			// This vertex can never move legally while the partition is
			// feasible; left in the container it can only cork a bucket.
			continue
		}
		if e.cfg.CLIP {
			e.refCont.Insert(vv, p.Side(vv), 0)
		} else {
			e.refCont.Insert(vv, p.Side(vv), p.Gain(vv))
		}
	}

	startCut := p.Cut()
	if e.tracer != nil {
		e.tracer.PassStart(passNo, startCut)
	}
	startLegal := p.Legal(e.bal)
	bestIdx := -1
	bestCut := startCut
	bestLegal := startLegal
	bestDiff := absDiff(p.Area(0), p.Area(1))
	if !startLegal {
		bestCut = math.MaxInt64
	}

	var lastFrom uint8
	hasLast := false

	for {
		// Config.MaxIdleMoves postdates the seed; the optimized pass checks
		// the same condition at the same point.
		if e.cfg.MaxIdleMoves > 0 && bestLegal && len(e.moveStack)-1-bestIdx > e.cfg.MaxIdleMoves {
			break
		}
		v, ok := e.referenceSelectMove(p, lastFrom, hasLast)
		if !ok {
			stuck = e.refCont.Size(0)+e.refCont.Size(1) > 0
			break
		}
		from := p.Side(v)
		e.refCont.Remove(v)
		e.locked[v] = true
		// Neighbor gain updates read pre-move pin counts; order matters.
		e.referenceUpdateNeighbors(p, v)
		p.Move(v)
		e.moveStack = append(e.moveStack, v)
		moves++
		lastFrom = from
		hasLast = true
		if e.tracer != nil {
			e.tracer.MoveMade(passNo, moves, v, p.Cut())
		}

		cur := p.Cut()
		if !p.Legal(e.bal) {
			continue
		}
		take := false
		if !bestLegal || cur < bestCut {
			take = true
		} else if cur == bestCut {
			switch e.cfg.BestTie {
			case FirstBest:
				// keep the earlier one
			case LastBest:
				take = true
			case MostBalanced:
				take = absDiff(p.Area(0), p.Area(1)) < bestDiff
			}
		}
		if take {
			bestIdx = len(e.moveStack) - 1
			bestCut = cur
			bestLegal = true
			bestDiff = absDiff(p.Area(0), p.Area(1))
		}
	}

	// Roll back moves made after the best prefix.
	for i := len(e.moveStack) - 1; i > bestIdx; i-- {
		p.Move(e.moveStack[i])
	}
	if e.tracer != nil {
		e.tracer.PassEnd(passNo, p.Cut(), moves, len(e.moveStack)-1-bestIdx)
	}

	if !startLegal {
		return bestLegal, moves, stuck // legalizing counts as improvement
	}
	return bestLegal && bestCut < startCut, moves, stuck
}

// referenceSelectMove is the seed Engine.selectMove on the legacy container.
func (e *Engine) referenceSelectMove(p *partition.P, lastFrom uint8, hasLast bool) (int32, bool) {
	var cand [2]int32
	var key [2]int64
	var have [2]bool

	for s := uint8(0); s < 2; s++ {
		v, k, ok := e.refCont.Head(s)
		if !ok {
			continue
		}
		if p.MoveLegal(v, e.bal) {
			cand[s], key[s], have[s] = v, k, true
			continue
		}
		e.corks++
		if e.cfg.LookPastIllegal {
			// Scan the remainder of the head bucket for a legal move —
			// the costly alternative the paper evaluated and rejected.
			e.refCont.WalkBucket(s, k, func(u int32) bool {
				e.work++
				if p.MoveLegal(u, e.bal) {
					cand[s], key[s], have[s] = u, k, true
					return false
				}
				return true
			})
			continue
		}
		if e.cfg.SkipBucketOnly {
			// Skip only the corked bucket: examine the head of each lower
			// bucket until a legal move appears.
			e.refCont.HeadsDown(s, func(u int32, uk int64) bool {
				e.work++
				if p.MoveLegal(u, e.bal) {
					cand[s], key[s], have[s] = u, uk, true
					return false
				}
				return true
			})
		}
	}

	switch {
	case !have[0] && !have[1]:
		return 0, false
	case have[0] && !have[1]:
		return cand[0], true
	case have[1] && !have[0]:
		return cand[1], true
	}
	if key[0] != key[1] {
		if key[0] > key[1] {
			return cand[0], true
		}
		return cand[1], true
	}
	// Equal keys on both sides: apply the bias.
	var s uint8
	switch e.cfg.Bias {
	case Part0:
		s = 0
	case Away:
		if hasLast {
			s = 1 - lastFrom
		}
	case Toward:
		if hasLast {
			s = lastFrom
		}
	}
	return cand[s], true
}

// referenceUpdateNeighbors is the seed Engine.updateNeighbors: per-pin delta
// recomputation from the four before/after criticality values, applied
// immediately to the legacy container.
//
// Must be called BEFORE p.Move(v): it reads pre-move pin counts.
func (e *Engine) referenceUpdateNeighbors(p *partition.P, v int32) {
	from := p.Side(v)
	to := 1 - from
	skipUnchanged := e.cfg.Update == NonzeroOnly
	for _, edge := range e.h.IncidentEdges(v) {
		w := e.h.EdgeWeight(edge)
		cf := p.SideCount(edge, from)
		ct := p.SideCount(edge, to)
		if skipUnchanged && cf > 2 && ct > 1 {
			// No pin of this net can change gain; with NonzeroOnly the whole
			// net is safely skipped. Under AllDeltaGain the straightforward
			// implementation still walks it (and reinserts at zero delta),
			// which is exactly the churn the paper measures.
			continue
		}
		for _, y := range e.h.Pins(edge) {
			if y == v || e.locked[y] || !e.refCont.Contains(y) {
				continue
			}
			e.work++
			sy := p.Side(y)
			var bsy, both, asy, aoth int32
			if sy == from {
				bsy, both = cf, ct
				asy, aoth = cf-1, ct+1
			} else {
				bsy, both = ct, cf
				asy, aoth = ct+1, cf-1
			}
			var delta int64
			if asy == 1 {
				delta += w
			}
			if bsy == 1 {
				delta -= w
			}
			if aoth == 0 {
				delta -= w
			}
			if both == 0 {
				delta += w
			}
			if delta == 0 {
				if e.cfg.Update == AllDeltaGain {
					e.refCont.Update(y, 0)
				}
				continue
			}
			e.refCont.Update(y, delta)
		}
	}
}
