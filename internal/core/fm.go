package core

import (
	"math"

	"hgpart/internal/gain"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// Result summarizes one Engine.Run.
type Result struct {
	// Cut is the weighted cut of the final (best legal) solution.
	Cut int64
	// Passes is the number of FM passes executed.
	Passes int
	// Moves is the total number of vertex moves made (including moves later
	// rolled back).
	Moves int64
	// Work counts gain-update pin visits — the deterministic work-unit
	// measure used to normalize "CPU time" across machines in benches, in
	// the spirit of the paper's normalization to a reference workstation.
	Work int64
	// StuckTerminations counts passes that ended with movable vertices
	// still in the gain container but every head move illegal — the
	// signature of the corking effect. The paper reports that "traces of
	// CLIP executions show that corking actually occurs fairly often,
	// particularly with the more modern ISPD98 actual-area benchmarks";
	// this counter is that trace.
	StuckTerminations int
	// ZeroMovePasses counts passes that made no moves at all (a fully
	// corked CLIP pass terminates without making any moves).
	ZeroMovePasses int
	// CorkEvents counts selection rounds in which a side's highest-gain
	// bucket head was an illegal move, disqualifying the whole side — the
	// per-selection cork. Large values relative to Moves mean the engine
	// spent much of the pass unable to use one side.
	CorkEvents int64
	// Pruned reports that a RunPruned predicate abandoned the start early.
	Pruned bool
}

// Engine runs flat FM (or CLIP) passes over a partition according to a
// Config. An Engine is bound to one hypergraph and one balance constraint;
// it may be reused across many starts (allocations are recycled).
type Engine struct {
	h   *hypergraph.Hypergraph
	cfg Config
	bal partition.Balance
	r   *rng.RNG

	cont      *gain.Container
	refCont   *gain.LegacyContainer // reference path only (Config.ReferenceImpl)
	locked    []bool
	gainBuf   []int64 // per-vertex initial gains, filled net-centrically
	moveStack []int32
	work      int64
	corks     int64

	// Partition mirror: during an optimized pass the engine is the source of
	// truth for side assignment, per-net side pin counts, side areas and the
	// running cut. Owning the state lets one sweep per move update counts,
	// cut and neighbor gains together (the seed pays two sweeps: p.Move plus
	// the per-net gain updates), and turns every mid-pass p.Cut/p.Legal/
	// p.MoveLegal call into a local read. The mirror is copied in from p at
	// Run start and copied back with one p.Load per Run (per pass in debug
	// mode, so invariant checks see a synchronized partition); neither end
	// sweeps the pins, so the incremental counts and cut are what p ends up
	// holding and what VerifyPartitionState cross-checks.
	side []uint8
	cnt  [][2]int32
	area [2]int64
	cut  int64

	// Pass-start snapshot of the derived mirror state, the restore point of
	// the replay rollback route (see rollback). snapCnt is an arena sized
	// with cnt.
	snapCnt  [][2]int32
	snapArea [2]int64
	snapCut  int64

	// Krishnamurthy lookahead state (allocated when LookaheadDepth >= 2).
	immobile [][2]int32 // per net: locked/excluded pins by side
	lookBuf  []int64

	tracer Tracer
}

// Tracer observes the engine's execution — the instrumentation behind the
// "Do collect all data possible" maxim and the corking traces of §2.3.
// Implementations must be cheap; hooks fire on the hot path.
type Tracer interface {
	// PassStart fires at the beginning of each pass with the current cut.
	PassStart(pass int, cut int64)
	// MoveMade fires after each accepted move with the running cut.
	MoveMade(pass int, moveIdx int64, v int32, cut int64)
	// PassEnd fires after rollback with the pass outcome.
	PassEnd(pass int, bestCut int64, moves int64, rolledBack int)
}

// SetTracer attaches a tracer (nil detaches). Not safe to call during Run.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// NewEngine builds an engine for h under balance bal. r drives Random
// insertion order and is required only in that case (a deterministic
// generator may always be passed).
func NewEngine(h *hypergraph.Hypergraph, cfg Config, bal partition.Balance, r *rng.RNG) *Engine {
	e := &Engine{
		h:      h,
		cfg:    cfg,
		bal:    bal,
		r:      r,
		locked: make([]bool, h.NumVertices()),
	}
	if cfg.ReferenceImpl {
		if cfg.LookaheadDepth >= 2 || cfg.BoundaryOnly {
			panic("core: ReferenceImpl supports neither lookahead nor boundary-only refinement")
		}
		e.refCont = gain.NewLegacyContainer(h.NumVertices(), containerMaxKey(h, cfg), containerOrder(cfg), r)
	} else {
		e.cont = gain.NewContainer(h.NumVertices(), containerMaxKey(h, cfg), containerOrder(cfg), r)
		e.side = make([]uint8, h.NumVertices())
		e.cnt = make([][2]int32, h.NumEdges())
		e.snapCnt = make([][2]int32, h.NumEdges())
	}
	return e
}

// Rebind re-targets the engine at a different hypergraph and balance
// constraint, recycling every scratch allocation (gain container arrays,
// locked flags, gain and move buffers). Multilevel refinement rebinds one
// scratch engine across the levels of the uncoarsening sweep instead of
// constructing an engine per level; the engine behaves exactly as a freshly
// constructed one (gain.Container.Reinit guarantees no state leaks). A
// non-nil r re-arms the random stream driving Random insertion order; nil
// keeps the current stream (the multilevel case: one stream per start spans
// all levels). Under ReferenceImpl a fresh legacy container is constructed
// instead — the reference path deliberately keeps the seed's allocation
// behavior.
func (e *Engine) Rebind(h *hypergraph.Hypergraph, bal partition.Balance, r *rng.RNG) {
	e.h = h
	e.bal = bal
	if r != nil {
		e.r = r
	}
	if e.cfg.ReferenceImpl {
		e.refCont = gain.NewLegacyContainer(h.NumVertices(), containerMaxKey(h, e.cfg), containerOrder(e.cfg), e.r)
	} else {
		e.cont.Reinit(h.NumVertices(), containerMaxKey(h, e.cfg), containerOrder(e.cfg), e.r)
		e.side = resize(e.side, h.NumVertices())
		e.cnt = resize(e.cnt, h.NumEdges())
		e.snapCnt = resize(e.snapCnt, h.NumEdges())
	}
	e.locked = resize(e.locked, h.NumVertices())
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Callers overwrite every element before reading it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// containerMaxKey is the gain-key magnitude bound the container must cover.
func containerMaxKey(h *hypergraph.Hypergraph, cfg Config) int64 {
	maxKey := h.MaxWeightedDegree()
	if cfg.CLIP {
		// Cumulative delta gains range over twice the plain-gain range.
		maxKey *= 2
	}
	return maxKey
}

func containerOrder(cfg Config) gain.Order {
	switch cfg.Insertion {
	case FIFO:
		return gain.FIFO
	case RandomOrder:
		return gain.Random
	default:
		return gain.LIFO
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Balance returns the engine's balance constraint.
func (e *Engine) Balance() partition.Balance { return e.bal }

// Run improves p in place with FM passes until a pass brings no improvement
// (or cfg.MaxPasses is reached) and returns the outcome. p must be a
// partition of the engine's hypergraph.
func (e *Engine) Run(p *partition.P) Result {
	return e.RunPruned(p, nil)
}

// RunPruned is Run with an optional pruning predicate, enabling the
// early-termination multistart regime the paper's §3.2 describes ("pruning
// (early termination of starts that appear unpromising relative to previous
// starts) can be applied"). After every pass, keepGoing is consulted with
// the pass number and current cut; returning false abandons the start
// immediately (the partition keeps its current — already rolled-back —
// state). A nil predicate never prunes.
func (e *Engine) RunPruned(p *partition.P, keepGoing func(pass int, cut int64) bool) Result {
	if p.H != e.h {
		panic("core: partition belongs to a different hypergraph")
	}
	res := Result{}
	e.work = 0
	e.corks = 0
	reference := e.cfg.ReferenceImpl
	if !reference {
		e.loadMirror(p)
	}
	synced := reference
	for {
		var improved bool
		var moves int64
		var stuck bool
		var curCut int64
		if reference {
			improved, moves, stuck = e.referencePass(p, res.Passes+1)
			curCut = p.Cut()
		} else {
			improved, moves, stuck, curCut = e.pass(p, res.Passes+1)
			synced = false
		}
		res.Passes++
		res.Moves += moves
		if e.cfg.CheckInvariants {
			if !synced {
				e.syncPartition(p)
				synced = true
			}
			if err := e.verifyAfterPass(p); err != nil {
				panic(err)
			}
		}
		if stuck {
			res.StuckTerminations++
		}
		if moves == 0 {
			res.ZeroMovePasses++
		}
		if !improved {
			break
		}
		if keepGoing != nil && !keepGoing(res.Passes, curCut) {
			res.Pruned = true
			break
		}
		if e.cfg.MaxPasses > 0 && res.Passes >= e.cfg.MaxPasses {
			break
		}
	}
	if !synced {
		e.syncPartition(p)
	}
	res.Cut = p.Cut()
	res.Work = e.work
	res.CorkEvents = e.corks
	return res
}

// loadMirror copies p's state into the mirror: sides, per-net counts,
// areas and cut. p maintains all of them incrementally, so nothing is
// recounted.
func (e *Engine) loadMirror(p *partition.P) {
	for v := range e.side {
		e.side[v] = p.Side(int32(v))
	}
	copy(e.cnt, p.Counts())
	e.area = [2]int64{p.Area(0), p.Area(1)}
	e.cut = p.Cut()
}

// syncPartition copies the mirror back into p with one p.Load. The mirror
// only ever makes legal FM moves of non-fixed vertices, so Load cannot
// fail.
func (e *Engine) syncPartition(p *partition.P) {
	if err := p.Load(e.side, e.cnt, e.area, e.cut); err != nil {
		panic("core: mirror sync rejected: " + err.Error())
	}
}

// mirrorLegal is p.Legal against the mirror.
//
//hglint:hotpath
func (e *Engine) mirrorLegal() bool {
	return e.bal.Contains(e.area[0]) && e.bal.Contains(e.area[1])
}

// mirrorMoveLegal is p.MoveLegal against the mirror. The fixed-vertex check
// is unnecessary: fixed vertices are never inserted into the gain container,
// and only container members are proposed.
//
//hglint:hotpath
func (e *Engine) mirrorMoveLegal(v int32) bool {
	w := e.h.VertexWeight(v)
	from := e.side[v]
	return e.bal.Contains(e.area[from]-w) && e.bal.Contains(e.area[1-from]+w)
}

// mirrorGain is p.Gain against the mirror.
//
//hglint:hotpath
func (e *Engine) mirrorGain(v int32) int64 {
	from := e.side[v]
	to := 1 - from
	var g int64
	for _, edge := range e.h.IncidentEdges(v) {
		c := e.cnt[edge]
		w := e.h.EdgeWeight(edge)
		if c[from] == 1 {
			g += w
		}
		if c[to] == 0 {
			g -= w
		}
	}
	return g
}

// pass executes a single FM pass: insert movable vertices, repeatedly make
// the best legal head move, then roll back to the best legal prefix. stuck
// reports whether the pass ended with unlocked vertices still in the gain
// container but every head move illegal (corking). curCut is the cut of the
// solution left in the mirror after rollback (the caller syncs p lazily).
//
//hglint:hotpath
func (e *Engine) pass(p *partition.P, passNo int) (improved bool, moves int64, stuck bool, curCut int64) {
	copy(e.snapCnt, e.cnt)
	e.snapArea = e.area
	e.snapCut = e.cut
	e.cont.Clear()
	clear(e.locked)
	e.moveStack = e.moveStack[:0]
	lookahead := e.cfg.LookaheadDepth >= 2
	if lookahead {
		e.resetImmobile(p)
	}

	slack := e.bal.Slack()
	n := e.h.NumVertices()
	if !e.cfg.CLIP {
		e.computeAllGains()
	}
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
		if e.cfg.BoundaryOnly && !e.isBoundary(vv) {
			continue
		}
		if e.cfg.CLIP {
			e.cont.Insert(vv, e.side[vv], 0)
		} else {
			e.cont.Insert(vv, e.side[vv], e.gainBuf[vv])
		}
	}

	startCut := e.cut
	if e.tracer != nil {
		e.tracer.PassStart(passNo, startCut)
	}
	startLegal := e.mirrorLegal()
	bestIdx := -1
	bestCut := startCut
	bestLegal := startLegal
	bestDiff := absDiff(e.area[0], e.area[1])
	if !startLegal {
		bestCut = math.MaxInt64
	}

	var lastFrom uint8
	hasLast := false
	maxIdle := e.cfg.MaxIdleMoves

	for {
		if maxIdle > 0 && bestLegal && len(e.moveStack)-1-bestIdx > maxIdle {
			break // early exit: the tail past the best prefix is rolled back anyway
		}
		v, ok := e.selectMove(lastFrom, hasLast)
		if !ok {
			stuck = e.cont.Size(0)+e.cont.Size(1) > 0
			break
		}
		from := e.side[v]
		e.cont.Remove(v)
		e.locked[v] = true
		e.applyMove(v)
		if lookahead {
			e.chargeImmobile(v) // locked on its destination side
		}
		if e.cfg.BoundaryOnly {
			e.insertNewBoundary(p, v, slack)
		}
		//hglint:ignore hotalloc arena append: moveStack keeps its capacity across passes, so growth happens once per engine, not per pass
		e.moveStack = append(e.moveStack, v)
		moves++
		lastFrom = from
		hasLast = true
		if e.tracer != nil {
			e.tracer.MoveMade(passNo, moves, v, e.cut)
		}

		cur := e.cut
		if !e.mirrorLegal() {
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
				take = absDiff(e.area[0], e.area[1]) < bestDiff
			}
		}
		if take {
			bestIdx = len(e.moveStack) - 1
			bestCut = cur
			bestLegal = true
			bestDiff = absDiff(e.area[0], e.area[1])
		}
	}

	e.rollback(bestIdx)
	curCut = startCut
	if bestIdx >= 0 {
		curCut = bestCut
	}
	if e.tracer != nil {
		e.tracer.PassEnd(passNo, curCut, moves, len(e.moveStack)-1-bestIdx)
	}

	if !startLegal {
		return bestLegal, moves, stuck, curCut // legalizing counts as improvement
	}
	return bestLegal && bestCut < startCut, moves, stuck, curCut
}

// rollback returns the mirror to the pass's best prefix, the first
// bestIdx+1 moves of the move stack (none when bestIdx is -1), by the
// cheaper of two exact routes. A suffix no longer than the kept prefix is
// undone move by move with unmove. Otherwise — common when a pass moves
// every vertex and keeps a short prefix — every moved vertex flips back to
// its pass-start side (each moves at most once per pass), the pass-start
// counts, areas and cut are restored from the snapshot, and the kept prefix
// is replayed with unmove. Both routes do integer bookkeeping only, so they
// leave bit-identical state. Either way the unmoves cover only the shorter
// of the two halves; the replay adds a byte flip per move and one copy of
// the counts.
//
//hglint:hotpath
func (e *Engine) rollback(bestIdx int) {
	kept := e.moveStack[:bestIdx+1]
	undone := e.moveStack[bestIdx+1:]
	if len(undone) <= len(kept) {
		for i := len(undone) - 1; i >= 0; i-- {
			e.unmove(undone[i])
		}
		return
	}
	for _, u := range e.moveStack {
		e.side[u] = 1 - e.side[u]
	}
	copy(e.cnt, e.snapCnt)
	e.area = e.snapArea
	e.cut = e.snapCut
	for _, u := range kept {
		e.unmove(u)
	}
}

// selectMove picks the next move per the paper's selection discipline: each
// side offers only the head of its highest non-empty bucket; an illegal head
// disqualifies the whole side (unless LookPastIllegal). Between two legal
// candidates the higher key wins; equal keys are resolved by the Bias.
//
//hglint:hotpath
func (e *Engine) selectMove(lastFrom uint8, hasLast bool) (int32, bool) {
	var cand [2]int32
	var key [2]int64
	var have [2]bool

	for s := uint8(0); s < 2; s++ {
		if e.cfg.LookaheadDepth >= 2 {
			if v, k, ok := e.lookaheadHead(s); ok {
				cand[s], key[s], have[s] = v, k, true
			}
			continue
		}
		v, k, ok := e.cont.Head(s)
		if !ok {
			continue
		}
		if e.mirrorMoveLegal(v) {
			cand[s], key[s], have[s] = v, k, true
			continue
		}
		e.corks++
		if e.cfg.LookPastIllegal {
			// Scan the remainder of the head bucket for a legal move —
			// the costly alternative the paper evaluated and rejected.
			//hglint:ignore hotalloc ablation-only branch (LookPastIllegal, off in every default config); its cost is the point of the experiment
			e.cont.WalkBucket(s, k, func(u int32) bool {
				e.work++
				if e.mirrorMoveLegal(u) {
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
			//hglint:ignore hotalloc ablation-only branch (SkipBucketOnly, off in every default config); its cost is the point of the experiment
			e.cont.HeadsDown(s, func(u int32, uk int64) bool {
				e.work++
				if e.mirrorMoveLegal(u) {
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

// applyMove moves v in the mirror with one sweep over its incident nets,
// folding together what the seed does in two: the partition update (pin
// counts, cut, areas — p.Move) and the neighbor delta-gain application. Per
// net, the paper's pin-count state transitions are batched: a neighbor's
// delta through one net depends only on the neighbor's side and the net's
// pre-move (from, to) pin counts, so both possible deltas are computed once
// per net and applied to each eligible pin by a side lookup — no per-pin
// criticality recomputation. Bit-identical to the reference per-pin method
// (reference.go): a from-side neighbor implies cf >= 2 and a to-side
// neighbor implies ct >= 1, which collapses the four-term formula to the
// two-term ones below; the NonzeroOnly net skip (both deltas zero) is
// exactly the seed's cf > 2 && ct > 1 condition; and the per-pin work
// counter is maintained identically. The seed's locked-pin test is subsumed
// by the membership test: a locked vertex has been removed from the
// container, so Contains is false. Interleaving the count updates with the
// neighbor sweep is safe because each net's deltas read only that net's own
// pre-move counts and the (not yet flipped) side vector.
//
//hglint:hotpath
func (e *Engine) applyMove(v int32) {
	from := e.side[v]
	to := 1 - from
	allDelta := e.cfg.Update == AllDeltaGain
	cont := e.cont
	for _, edge := range e.h.IncidentEdges(v) {
		c := &e.cnt[edge]
		cf := c[from]
		ct := c[to]
		w := e.h.EdgeWeight(edge)
		var dFrom, dTo int64
		if cf == 2 {
			dFrom += w // from side leaves criticality 2 -> 1
		}
		if ct == 0 {
			dFrom += w // net was uncut; from-side pins stop paying for it
		}
		if ct == 1 {
			dTo -= w // to side leaves criticality 1 -> 2
		}
		if cf == 1 {
			dTo -= w // net becomes uncut on the to side
		}
		// Cut maintenance: v sits on from, so the net was cut iff ct > 0.
		if ct == 0 {
			if cf > 1 {
				e.cut += w // uncut net gains its first to-side pin
			}
		} else if cf == 1 {
			e.cut -= w // v was the last from-side pin
		}
		c[from] = cf - 1
		c[to] = ct + 1
		if dFrom == 0 && dTo == 0 && !allDelta {
			// No pin of this net can change gain; with NonzeroOnly the whole
			// net is safely skipped. Under AllDeltaGain the straightforward
			// implementation still walks it (and reinserts at zero delta),
			// which is exactly the churn the paper measures.
			continue
		}
		e.work += int64(cont.ApplyDeltaPins(e.h.Pins(edge), v, from, dFrom, dTo, allDelta))
	}
	e.side[v] = to
	w := e.h.VertexWeight(v)
	e.area[from] -= w
	e.area[to] += w
}

// unmove flips v in the mirror without gain bookkeeping, repairing counts,
// cut, areas and side with one sweep over its incident nets. Rollback uses
// it both to undo a move and to replay one onto the pass-start snapshot;
// no gains are needed either way because the pass is over. This is what
// keeps the mirror valid across passes — the seed pays a fully counted
// p.Move per rolled move plus per-pass recounts.
//
//hglint:hotpath
func (e *Engine) unmove(v int32) {
	from := e.side[v] // the to-side of the original move
	to := 1 - from
	for _, edge := range e.h.IncidentEdges(v) {
		c := &e.cnt[edge]
		cf := c[from]
		ct := c[to]
		w := e.h.EdgeWeight(edge)
		if ct == 0 {
			if cf > 1 {
				e.cut += w
			}
		} else if cf == 1 {
			e.cut -= w
		}
		c[from] = cf - 1
		c[to] = ct + 1
	}
	e.side[v] = to
	w := e.h.VertexWeight(v)
	e.area[from] -= w
	e.area[to] += w
}

// computeAllGains fills e.gainBuf with every vertex's current gain by a
// single net-centric sweep over the mirror instead of NumVertices
// partition.Gain calls. Only nets in a critical state contribute: a cut net
// with a lone pin on one side gives that pin +w, and an uncut multi-pin net
// charges every pin -w (single-pin nets cancel to zero). Everything else is
// skipped without touching its pin list, so the sweep is O(nets + critical
// pins) rather than O(pins) — and the buffer is an arena, so pass startup
// allocates nothing in steady state.
//
//hglint:hotpath
func (e *Engine) computeAllGains() {
	n := e.h.NumVertices()
	if cap(e.gainBuf) < n {
		//hglint:ignore hotalloc arena grow: taken once per engine/instance pairing, then the capacity check keeps every later pass allocation-free
		e.gainBuf = make([]int64, n)
	} else {
		e.gainBuf = e.gainBuf[:n]
		clear(e.gainBuf)
	}
	g := e.gainBuf
	for ei := range e.cnt {
		edge := int32(ei)
		c0 := e.cnt[ei][0]
		c1 := e.cnt[ei][1]
		w := e.h.EdgeWeight(edge)
		if c0 == 0 || c1 == 0 {
			if c0+c1 <= 1 {
				continue // single-pin (+w-w) or empty net: no contribution
			}
			for _, y := range e.h.Pins(edge) {
				g[y] -= w
			}
			continue
		}
		if c0 == 1 {
			for _, y := range e.h.Pins(edge) {
				if e.side[y] == 0 {
					g[y] += w
				}
			}
		}
		if c1 == 1 {
			for _, y := range e.h.Pins(edge) {
				if e.side[y] == 1 {
					g[y] += w
				}
			}
		}
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
