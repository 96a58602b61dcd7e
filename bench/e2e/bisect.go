package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/kwayfm"
	"hgpart/internal/multilevel"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// polishSalt derives the V-cycle seed from the run seed, as cmd/hgpart and
// hgserved do.
const polishSalt = 0x9e3779b97f4a7c15

// bisectWorkload runs whole in-process bisections back to back.
type bisectWorkload struct {
	spec   gen.Spec
	starts int
	// insts distinct instances are generated per run and the operations
	// cycle over them, so one unusually easy or hard instance moves a run's
	// median less.
	insts int
}

// bisect-ibm: a full-scale ibm01-like instance (12.7k cells, with macros)
// has a deep hierarchy, so coarsening and refinement dominate. It is the
// single-threaded baseline and leaves a CPU free for intra-start
// parallelism to show.
var bisectIBM = bisectWorkload{spec: gen.MustIBMProfile(1), starts: 4, insts: 8}

// bisect-mcnc: a unit-area struct-like instance (1.9k cells) has a shallow
// hierarchy, so initial partitioning and per-start fixed costs (level
// allocation, engine rebind, harness and verification) are a large share.
var bisectMCNC = bisectWorkload{spec: mustMCNC("struct"), starts: 16, insts: 16}

func mustMCNC(name string) gen.Spec {
	s, err := gen.MCNCProfile(name)
	if err != nil {
		panic(err)
	}
	return s
}

func (w bisectWorkload) run(b *bench) error {
	var insts []*instance
	err := b.timeSetup(func() error {
		insts = nil
		seeds := rng.New(b.seed)
		for i := 0; i < w.insts; i++ {
			inst, err := b.makeInstance(w.spec, seeds.Uint64())
			if err != nil {
				return err
			}
			insts = append(insts, inst)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	// Hand set-up garbage back to the OS first, so the high-water mark
	// starts from the live set whatever the GC's timing.
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return err
	}

	cfg := solveCfg{starts: w.starts, workers: 1}
	seeds := rng.New(b.seed ^ polishSalt)
	var lat, latTraced, cuts []float64
	var allocBytes uint64
	var wallTraced time.Duration
	traced := func(i int, inst *instance, seed uint64) (int64, error) {
		cut, d, err := timeSolve(inst, cfg, seed, &opTrace{rec: b.rec, op: i, ml: &b.ml})
		latTraced, wallTraced = append(latTraced, ms(d)), wallTraced+d
		return cut, err
	}
	deadline := b.deadline()
	start := time.Now()
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		inst, seed := insts[i%len(insts)], seeds.Uint64()
		b.attempted++
		// A traced run also times every operation with tracing on, in
		// alternating order, so the overhead is measured on paired work.
		var tcut int64
		var terr error
		if b.rec != nil && i%2 == 1 {
			tcut, terr = traced(i, inst, seed)
		}
		a0, _ := heapAlloc()
		cut, d, err := timeSolve(inst, cfg, seed, nil)
		a1, _ := heapAlloc()
		if b.rec != nil && i%2 == 0 {
			tcut, terr = traced(i, inst, seed)
		}
		switch {
		case err != nil:
			b.fail(i, err)
		case terr != nil:
			b.fail(i, fmt.Errorf("traced: %w", terr))
		case b.rec != nil && tcut != cut:
			b.fail(i, fmt.Errorf("traced cut %d != untraced cut %d", tcut, cut))
		default:
			lat, cuts, allocBytes = append(lat, ms(d)), append(cuts, float64(cut)), allocBytes+a1-a0
		}
	}
	elapsed := time.Since(start)

	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.metrics["op_p50_ms"] = quantile(lat, 0.5)
	b.metrics["op_p90_ms"] = quantile(lat, 0.9)
	b.metrics["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	b.metrics["cut_mean"] = mean(cuts)
	b.metrics["peak_rss_mb"] = rss
	if b.rec != nil {
		spans := b.rec.snapshot()
		var covered int64
		for _, ns := range topLevelNs(spans) {
			covered += ns
		}
		b.metrics["bench.residual_pct"] = 100 * (1 - float64(covered)/float64(wallTraced.Nanoseconds()))
		b.metrics["bench.trace_overhead_pct"] = 100 * (quantile(latTraced, 0.5)/quantile(lat, 0.5) - 1)
		b.metrics["bench.alloc_mb_per_op"] = float64(allocBytes) / 1e6 / float64(len(lat))
		b.layerMetrics(spans)
	}
	return nil
}

// timeSolve is solve with its wall time.
func timeSolve(inst *instance, c solveCfg, seed uint64, tr *opTrace) (int64, time.Duration, error) {
	t0 := time.Now()
	cut, err := solve(inst, c, seed, tr)
	return cut, time.Since(t0), err
}

// solveCfg describes one bisection: starts multistart starts on workers
// harness workers, one V-cycle on the best start, then, when refineThreads
// is positive, the parallel FM polish hgserved applies for refine_threads.
type solveCfg struct{ starts, workers, refineThreads int }

// solve runs one bisection through the same calls cmd/hgpart's harness path
// and hgserved's job runner make, checks the result, and returns its cut.
// Every start must pass eval.VerifyOutcome. With tr set, each call into a
// layer is recorded as a span.
func solve(inst *instance, c solveCfg, seed uint64, tr *opTrace) (int64, error) {
	factory := func() eval.Heuristic {
		ml := eval.NewML("ML", inst.h, multilevel.Config{Refine: core.StrongConfig(false)}, inst.bal, 1)
		if tr == nil {
			return ml
		}
		return tracedML{ML: ml, tr: tr}
	}
	verify := eval.VerifyOutcome(inst.bal)
	opt := eval.RunOptions{Workers: c.workers, Verify: verify}
	if tr != nil {
		opt.Verify = func(o eval.Outcome) error {
			defer tr.end(tr.child("eval.Verify"))
			return verify(o)
		}
	}

	id := tr.begin("eval.RunMultistart")
	mark := tr.allocMark()
	rep := eval.RunMultistart(context.Background(), factory, c.starts, seed, opt)
	tr.noteRun(rep, mark)
	tr.end(id)
	if rep.Completed != c.starts || rep.BestIdx < 0 {
		return 0, fmt.Errorf("%d of %d starts passed verification (first error: %v)",
			rep.Completed, c.starts, firstErr(rep))
	}
	best := rep.Best
	id = tr.begin("eval.PolishBest")
	if polish := factory().PolishBest(best.P, rng.New(seed^polishSalt)); polish.P != nil {
		best = polish
	}
	tr.end(id)
	id = tr.begin("bench.check")
	err := checkBisection(best.P, inst.bal, best.Cut)
	tr.end(id)
	if err != nil || c.refineThreads == 0 {
		return best.Cut, err
	}

	parts := make(objective.Assignment, inst.h.NumVertices())
	for v := range parts {
		parts[v] = int32(best.P.Side(int32(v)))
	}
	id = tr.begin("kwayfm.ParRefine")
	pres, err := kwayfm.ParRefine(context.Background(), inst.h, parts, 2, kwayfm.ParConfig{
		Objective: kwayfm.CutObjective,
		Threads:   c.refineThreads,
		LoBound:   inst.bal.Lo,
		HiBound:   inst.bal.Hi,
	})
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("parallel refine: %w", err)
	}
	tr.noteParRefine(pres)
	id = tr.begin("bench.check")
	err = checkAssignment(inst.h, parts, inst.bal, pres.Final)
	tr.end(id)
	return pres.Final, err
}

func firstErr(rep *eval.RunReport) error {
	for _, sr := range rep.Results {
		if sr.Err != nil {
			return sr.Err
		}
	}
	return nil
}

// opTrace records the spans of one traced operation. A nil *opTrace
// records nothing.
type opTrace struct {
	rec *recorder
	op  int
	// top is the open top-level span: the parent of the spans the
	// harness's worker goroutines open. It is written only while no worker
	// runs.
	top int
	ml  *mlStats
}

func (t *opTrace) begin(name string) int {
	if t == nil {
		return -1
	}
	t.top = t.rec.begin(name, t.op, -1)
	return t.top
}

func (t *opTrace) child(name string) int { return t.rec.begin(name, t.op, t.top) }

func (t *opTrace) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	return t.rec.end(id)
}

// allocMark reads the heap allocation counters before a harness run.
func (t *opTrace) allocMark() [2]uint64 {
	if t == nil {
		return [2]uint64{}
	}
	bytes, objs := heapAlloc()
	return [2]uint64{bytes, objs}
}

// noteRun records a harness run's starts and its allocation since mark.
// With two harness workers the starts allocate concurrently, so allocation
// is counted per run and divided by its starts.
func (t *opTrace) noteRun(rep *eval.RunReport, mark [2]uint64) {
	if t == nil {
		return
	}
	bytes, objs := heapAlloc()
	s := t.ml
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runStarts += int64(len(rep.Results))
	s.startsOK += int64(rep.Completed)
	s.allocBytes += int64(bytes - mark[0])
	s.allocObjs += int64(objs - mark[1])
}

func (t *opTrace) noteParRefine(r kwayfm.ParResult) {
	if t == nil {
		return
	}
	s := t.ml
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parRefines++
	s.parRounds += int64(r.Rounds)
	s.parMoves += r.Moves
}

// tracedML is eval.ML with its starts and V-cycles recorded. Run makes the
// same call eval.ML.Run makes, so that it can keep the multilevel.Stats the
// harness discards; the traced-equals-untraced cut check guards the copy.
type tracedML struct {
	*eval.ML
	tr *opTrace
}

func (t tracedML) Run(r *rng.RNG) eval.Outcome {
	id := t.tr.child("multilevel.Partition")
	p, st := t.P.Partition(r)
	d := t.tr.end(id)
	s := t.tr.ml
	s.mu.Lock()
	s.starts++
	s.levels += int64(st.Levels)
	s.coarsest += int64(st.CoarsestVertices)
	s.moves += st.Moves
	s.work += st.Work
	s.ns += d.Nanoseconds()
	s.mu.Unlock()
	return eval.Outcome{P: p, Cut: st.Cut, Seconds: d.Seconds(), Work: st.Work}
}

func (t tracedML) PolishBest(p *partition.P, r *rng.RNG) eval.Outcome {
	before := p.Cut()
	o := t.ML.PolishBest(p, r)
	s := t.tr.ml
	s.mu.Lock()
	s.polishes++
	if o.P != nil && o.Cut < before {
		s.polishGains++
	}
	s.mu.Unlock()
	return o
}

// mlStats accumulates what traced bisections report; harness workers
// update it concurrently.
type mlStats struct {
	mu                                    sync.Mutex
	runStarts, startsOK                   int64
	allocBytes, allocObjs                 int64
	starts, levels, coarsest, moves, work int64
	ns                                    int64
	polishes, polishGains                 int64
	parRefines, parRounds, parMoves       int64
}

// layerMetrics derives the per-layer metrics of the bisection layers from
// the spans and statistics of the traced operations.
func (b *bench) layerMetrics(spans []span) {
	self := selfTimes(spans)
	s := &b.ml
	s.mu.Lock()
	defer s.mu.Unlock()
	per := func(x, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}
	m := b.metrics
	m["gen.generate_ms"] = quantile(durations(spans, "gen.Generate"), 0.5)
	m["netlist.parse_ms_p50"] = quantile(durations(spans, "netlist.ParseHGR"), 0.5)
	m["eval.run_ms_p50"] = quantile(durations(spans, "eval.RunMultistart"), 0.5)
	m["eval.harness_self_ms_p50"] = quantile(selfByName(spans, self, "eval.RunMultistart"), 0.5)
	m["eval.verify_ms_per_start"] = mean(durations(spans, "eval.Verify"))
	m["eval.start_ok_ratio"] = per(s.startsOK, s.runStarts)
	m["multilevel.start_ms_p50"] = quantile(durations(spans, "multilevel.Partition"), 0.5)
	m["multilevel.start_ms_p90"] = quantile(durations(spans, "multilevel.Partition"), 0.9)
	m["multilevel.vcycle_ms_p50"] = quantile(durations(spans, "eval.PolishBest"), 0.5)
	m["multilevel.ns_per_work"] = per(s.ns, s.work)
	m["multilevel.allocs_per_start"] = per(s.allocObjs, s.runStarts)
	m["multilevel.alloc_mb_per_start"] = per(s.allocBytes, s.runStarts) / 1e6
	m["multilevel.levels"] = per(s.levels, s.starts)
	m["multilevel.coarsest_vertices"] = per(s.coarsest, s.starts)
	m["multilevel.moves_per_start"] = per(s.moves, s.starts)
	m["multilevel.work_per_start"] = per(s.work, s.starts)
	m["multilevel.vcycle_gain_ratio"] = per(s.polishGains, s.polishes)
	m["kwayfm.parrefine_ms_p50"] = quantile(durations(spans, "kwayfm.ParRefine"), 0.5)
	m["kwayfm.parrefine_rounds"] = per(s.parRounds, s.parRefines)
	m["kwayfm.parrefine_moves"] = per(s.parMoves, s.parRefines)
}
