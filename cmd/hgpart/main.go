// Command hgpart bisects a hypergraph read from a file (or a generated
// synthetic instance) and reports cut, balance and runtime.
//
// Usage:
//
//	hgpart -in circuit.hgr -tol 0.02 -starts 4
//	hgpart -in ibm01.netD -are ibm01.are -engine flat -tol 0.10
//	hgpart -ibm 1 -scale 0.2 -engine clip
//
// Every 2-way ml/flat/clip run goes through the multistart harness, so long
// runs can be made fault tolerant: -timeout bounds the run's wall clock and
// -work-budget its deterministic work (partial results are reported, not
// discarded), -checkpoint journals every completed start so -resume
// continues an interrupted run with an identical report, -retries reseeds
// failed starts, and -check-invariants verifies every partition against a
// from-scratch recomputation:
//
//	hgpart -ibm 18 -starts 100 -timeout 2m -checkpoint run.jsonl
//	hgpart -ibm 18 -starts 100 -checkpoint run.jsonl -resume
//
// Input format is chosen by extension: .hgr for hMETIS, anything else is
// parsed as ISPD98 .netD/.net (with -are supplying areas). -seed seeds the
// partitioner only: -ibm always generates the profile's own instance, the
// one hgserved partitions for {"benchmark":"ibmN"}; write another instance
// seed with hggen -seed and read it with -in.
//
// -o <file> writes the best partition assignment, one line per vertex in
// instance order: side 0/1 for bisection, the part id for -k > 2.
//
// Exit codes:
//
//	0  success
//	1  internal error (I/O failure writing results, engine failure)
//	2  usage error or unparsable input (bad flags, malformed netlist)
//	3  no legal partition within the balance tolerance
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hgpart"
)

func main() {
	var (
		inPath  = flag.String("in", "", "input netlist (.hgr or .netD/.net)")
		arePath = flag.String("are", "", "ISPD98 .are area file (optional)")
		ibm     = flag.Int("ibm", 0, "generate ISPD98-like profile 1-18 instead of reading a file")
		scale   = flag.Float64("scale", 1.0, "downscale factor for -ibm, in (0,1]")
		tol     = flag.Float64("tol", 0.02, "balance tolerance (0.02 = 49-51%)")
		starts  = flag.Int("starts", 1, "independent starts; best kept")
		vcycles = flag.Int("vcycles", 1, "V-cycles on the best solution (ML engine)")
		engine  = flag.String("engine", "ml", "engine: ml, flat, clip, spectral")
		impl    = flag.String("impl", "optimized", "FM implementation: optimized (arena engine) or reference (frozen seed); results are bit-identical")
		k       = flag.Int("k", 2, "number of parts (k>2 uses recursive bisection)")
		refineK = flag.Bool("krefine", false, "direct k-way FM refinement after recursive bisection")
		refineT = flag.Int("refine-threads", 0, "with -krefine: use the deterministic synchronous-round parallel refiner with this many threads (output is byte-identical for every positive value; 0 = sequential refiner)")
		seed    = flag.Uint64("seed", 1, "random seed")

		usePortfolio = flag.Bool("portfolio", false, "race the curated engine portfolio for the first budget slice, then commit the rest to the winner (bisection only; ignores -engine)")
		workBudget   = flag.Int64("work-budget", 0, "deterministic work-unit budget (0 = unbounded); with -portfolio the first quarter funds the race")

		traceTo = flag.String("trace", "", "write per-pass FM trace CSV to this file (flat/clip engines)")
		outPath = flag.String("o", "", "write the best partition assignment to this file (one side/part id per vertex line)")
		quiet   = flag.Bool("q", false, "suppress instance statistics")

		timeout    = flag.Duration("timeout", 0, "wall-clock budget; undone starts are skipped, partial results reported")
		workers    = flag.Int("workers", 0, "concurrent starts (0 = GOMAXPROCS); the report is the same for every value")
		checkpoint = flag.String("checkpoint", "", "journal completed starts to this JSONL file")
		resume     = flag.Bool("resume", false, "resume from -checkpoint instead of starting over")
		retries    = flag.Int("retries", 0, "retry a failed start up to this many times with a reseeded generator")
		checkInv   = flag.Bool("check-invariants", false, "debug mode: verify partition and gain-structure invariants")
	)
	flag.Parse()

	// Validate user input at the boundary; deeper layers treat bad values as
	// programming errors and panic.
	if *scale <= 0 || *scale > 1 {
		fatalUsage(fmt.Errorf("-scale %g out of range (0,1]", *scale))
	}
	if *tol <= 0 || *tol >= 1 {
		fatalUsage(fmt.Errorf("-tol %g out of range (0,1)", *tol))
	}
	if *starts < 1 {
		fatalUsage(fmt.Errorf("-starts %d must be >= 1", *starts))
	}
	if *k < 2 {
		fatalUsage(fmt.Errorf("-k %d must be >= 2", *k))
	}
	if *vcycles < 0 {
		fatalUsage(fmt.Errorf("-vcycles %d must be >= 0", *vcycles))
	}
	if *retries < 0 {
		fatalUsage(fmt.Errorf("-retries %d must be >= 0", *retries))
	}
	if *workers < 0 {
		fatalUsage(fmt.Errorf("-workers %d must be >= 0 (0 = GOMAXPROCS)", *workers))
	}
	if *timeout < 0 {
		fatalUsage(fmt.Errorf("-timeout %v must be >= 0 (0 = no budget)", *timeout))
	}
	switch *engine {
	case "ml", "flat", "clip", "spectral":
	default:
		fatalUsage(fmt.Errorf("-engine %q must be ml, flat, clip or spectral", *engine))
	}
	if *resume && *checkpoint == "" {
		fatalUsage(fmt.Errorf("-resume requires -checkpoint <file>"))
	}
	if *impl != "optimized" && *impl != "reference" {
		fatalUsage(fmt.Errorf("-impl %q must be optimized or reference", *impl))
	}
	reference := *impl == "reference"
	if *refineT < 0 {
		fatalUsage(fmt.Errorf("-refine-threads %d must be >= 0", *refineT))
	}
	if *refineT > 0 && (*k <= 2 || !*refineK) {
		fatalUsage(fmt.Errorf("-refine-threads requires -krefine and -k > 2"))
	}
	if *workBudget < 0 {
		fatalUsage(fmt.Errorf("-work-budget %d must be >= 0", *workBudget))
	}
	if *usePortfolio && *k > 2 {
		fatalUsage(fmt.Errorf("-portfolio supports bisection only (-k 2)"))
	}
	if *workBudget > 0 && (*k > 2 || *engine == "spectral" || *traceTo != "") {
		fatalUsage(fmt.Errorf("-work-budget bounds a multistart: not with -k > 2, -engine spectral or -trace"))
	}

	h, err := loadInstance(*inPath, *arePath, *ibm, *scale)
	if err != nil {
		// Unreadable or malformed input is the user's to fix, not ours.
		fatalUsage(err)
	}
	if !*quiet {
		fmt.Fprint(os.Stderr, hgpart.ComputeStats(h))
	}

	if *k > 2 {
		runKWay(h, *k, *tol, *starts, *refineK, *refineT, *seed, reference, *checkInv, *outPath)
		return
	}

	total := h.TotalVertexWeight()
	bal := hgpart.NewBalance(total, *tol)

	if *usePortfolio {
		runPortfolio(h, bal, *starts, *seed, *workBudget, *outPath)
		return
	}

	if *engine == "spectral" {
		t0 := time.Now()
		p, sres, err := hgpart.SpectralBisect(h, bal, hgpart.SpectralOptions{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		checkLegal(p, bal)
		fmt.Printf("engine=spectral tolerance=%.3f\n", *tol)
		fmt.Printf("cut=%d (eigensolver iterations %d)\n", sres.Cut, sres.Iterations)
		printSides(p, total)
		fmt.Printf("time=%.3fs\n", time.Since(t0).Seconds())
		writeSides(*outPath, h.NumVertices(), p)
		return
	}

	if *traceTo != "" && (*engine == "flat" || *engine == "clip") {
		runTraced(h, bal, *engine, *traceTo, *seed, reference, *outPath)
		return
	}

	runMultistart(h, bal, *engine, *starts, *vcycles, *seed, *timeout, *workers, *workBudget,
		*checkpoint, *resume, *retries, *checkInv, reference, *outPath)
}

// runMultistart is the 2-way ml/flat/clip path: the multistart harness
// (parallel workers, wall-clock and work budgets, panic isolation with
// optional retries, invariant verification, checkpoint/resume), then the
// harness's finish step. Everything printed to stdout except the workers=
// echo and the time= line is a pure function of the instance and flags, and
// matches hgpart.Bisect and a fixed-engine hgserved request with the same
// seed and starts.
func runMultistart(h *hgpart.Hypergraph, bal hgpart.Balance, engine string, starts, vcycles int,
	seed uint64, timeout time.Duration, workers int, workBudget int64, checkpointPath string, resume bool,
	retries int, checkInv bool, reference bool, outPath string) {
	cfg := hgpart.StrongFMConfig(engine == "clip")
	cfg.CheckInvariants = checkInv
	cfg.ReferenceImpl = reference
	factory := func() hgpart.Heuristic {
		if engine == "ml" {
			return hgpart.NewMLHeuristic("ML", h, hgpart.MLConfig{Refine: cfg}, bal, vcycles)
		}
		return hgpart.NewFlatHeuristic("flat-"+engine, h, cfg, bal, hgpart.NewRNG(seed))
	}

	opt := hgpart.RunOptions{
		Workers:    workers,
		WallBudget: timeout,
		WorkBudget: workBudget,
		MaxRetries: retries,
	}
	if checkInv {
		opt.Verify = hgpart.VerifyOutcome(bal)
	}
	if checkpointPath != "" {
		cp, err := hgpart.OpenCheckpoint(checkpointPath, engine, seed, starts, resume)
		if err != nil {
			fatal(err)
		}
		defer cp.Close()
		opt.Checkpoint = cp
		if resume && cp.Resumed() > 0 {
			fmt.Fprintf(os.Stderr, "hgpart: resuming %d journaled starts from %s\n", cp.Resumed(), checkpointPath)
		}
	}

	t0 := time.Now()
	rep := hgpart.RunMultistart(context.Background(), factory, starts, seed, opt)

	fmt.Printf("engine=%s starts=%d workers=%d retries=%d check-invariants=%v\n",
		engine, starts, workers, retries, checkInv)
	fmt.Println(rep.Summary())
	if rep.Incomplete {
		fmt.Printf("incomplete: %s (%d of %d starts skipped)\n", rep.Reason, rep.Skipped, starts)
	}
	if rep.BestIdx < 0 {
		fatalInfeasible(fmt.Errorf("no start succeeded"))
	}
	best, err := hgpart.Finish(factory, seed, rep)
	if err != nil {
		fatal(err)
	}
	checkLegal(best.P, bal)
	fmt.Printf("cut=%d (best start %d)\n", best.Cut, rep.BestIdx)
	printSides(best.P, h.TotalVertexWeight())
	writeSides(outPath, h.NumVertices(), best.P)
	fmt.Printf("time=%.3fs work=%d (normalized %.3fs)\n",
		time.Since(t0).Seconds(), best.Work, float64(best.Work)/2e6)
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "hgpart: checkpoint journal error (resume may be unreliable): %v\n", err)
		}
	}
}

// runPortfolio executes the -portfolio schedule: feature extraction, the
// arm race, and the committed multistart on the winner. Everything printed
// to stdout except the wall-clock time= line is a pure function of
// (instance, seed, starts, work budget).
func runPortfolio(h *hgpart.Hypergraph, bal hgpart.Balance, starts int, seed uint64,
	workBudget int64, outPath string) {
	t0 := time.Now()
	res, err := hgpart.RunPortfolio(context.Background(), h, bal, seed, starts, workBudget)
	if err != nil {
		// With a background context the only reachable failure is an
		// infeasible balance: no arm produced a legal partition.
		fatalInfeasible(err)
	}
	race := res.Race
	fmt.Printf("portfolio starts=%d bucket=%s arms=%d\n", starts, race.Bucket.Key(), len(race.Arms))
	for _, tr := range race.Traces {
		marker := " "
		if tr.Won {
			marker = "*"
		}
		if !tr.OK {
			fmt.Printf("%s %-16s starts=%d work=%d (no legal partition)\n", marker, tr.Arm, tr.Starts, tr.Work)
			continue
		}
		fmt.Printf("%s %-16s starts=%d cut=%d work=%d\n", marker, tr.Arm, tr.Starts, tr.Cut, tr.Work)
	}
	fmt.Printf("winner=%s source=%s\n", race.Arms[race.Winner].Name, res.Source)
	fmt.Println(res.Commit.Summary())
	fmt.Printf("cut=%d\n", res.Final.Cut)
	printSides(res.Final.P, h.TotalVertexWeight())
	fmt.Printf("time=%.3fs work=%d (normalized %.3fs)\n",
		time.Since(t0).Seconds(), res.TotalWork, float64(res.TotalWork)/2e6)
	writeSides(outPath, h.NumVertices(), res.Final.P)
}

// checkLegal enforces the documented exit-3 contract: a best partition
// outside the balance bounds means the tolerance is infeasible for this
// instance (the engines keep the least-bad solution rather than none).
func checkLegal(p *hgpart.Partition, bal hgpart.Balance) {
	if !p.Legal(bal) {
		fatalInfeasible(fmt.Errorf(
			"no legal partition within tolerance: best has sides %d/%d, bounds [%d,%d]",
			p.Area(0), p.Area(1), bal.Lo, bal.Hi))
	}
}

func printSides(p *hgpart.Partition, total int64) {
	fmt.Printf("side0=%d (%.2f%%) side1=%d (%.2f%%)\n",
		p.Area(0), 100*float64(p.Area(0))/float64(total),
		p.Area(1), 100*float64(p.Area(1))/float64(total))
}

// runKWay handles -k > 2 via recursive bisection.
func runKWay(h *hgpart.Hypergraph, k int, tol float64, starts int, refine bool, refineThreads int, seed uint64, reference, checkInv bool, outPath string) {
	cfg := hgpart.KWayConfig{
		Tolerance:     tol,
		Starts:        starts,
		DirectRefine:  refine,
		RefineThreads: refineThreads,
	}
	cfg.Refine = hgpart.StrongFMConfig(false)
	cfg.Refine.ReferenceImpl = reference
	cfg.Refine.CheckInvariants = checkInv
	t0 := time.Now()
	res, err := hgpart.PartitionKWay(h, k, cfg, hgpart.NewRNG(seed))
	if err != nil {
		fatal(err)
	}
	// refine-threads is echoed like workers= elsewhere: informational, and
	// normalized away by the byte-identity regression tests because the
	// partition bytes cannot depend on it.
	fmt.Printf("k=%d tolerance=%.3f refine=%v refine-threads=%d\n", k, tol, refine, refineThreads)
	fmt.Printf("cut=%d lambda-1=%d imbalance=%.2f%%\n",
		res.CutNets, res.ConnectivityMinusOne, 100*res.Imbalance)
	w := hgpart.PartWeights(h, res.Parts, k)
	for p, x := range w {
		fmt.Printf("  part %d: weight %d (%.2f%%)\n", p, x,
			100*float64(x)/float64(h.TotalVertexWeight()))
	}
	fmt.Printf("time=%.3fs\n", time.Since(t0).Seconds())
	writeAssignment(outPath, h.NumVertices(), func(v int) int32 { return res.Parts[v] })
}

// runTraced runs a single traced flat start and writes the pass CSV.
func runTraced(h *hgpart.Hypergraph, bal hgpart.Balance, engine, path string, seed uint64, reference bool, outPath string) {
	cfg := hgpart.StrongFMConfig(engine == "clip")
	cfg.ReferenceImpl = reference
	r := hgpart.NewRNG(seed)
	eng := hgpart.NewFMEngine(h, cfg, bal, r)
	rec := &hgpart.TraceRecorder{KeepTrajectories: true}
	eng.SetTracer(rec)
	p := hgpart.NewPartition(h)
	p.RandomBalanced(r, bal)
	res := eng.Run(p)

	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := rec.WriteSummaryCSV(f); err != nil {
		fatal(err)
	}
	s := rec.Summarize()
	fmt.Printf("engine=%s (traced single start)\n", engine)
	fmt.Printf("cut=%d passes=%d moves=%d rolled_back=%d shortest_pass=%d\n",
		res.Cut, s.Passes, s.TotalMoves, s.TotalRolledBack, s.ShortestPassMoves)
	printSides(p, h.TotalVertexWeight())
	fmt.Printf("trace written to %s\n", path)
	writeSides(outPath, h.NumVertices(), p)
}

// writeSides writes a bisection assignment (hMETIS .part convention: one
// side per line, vertex order). A empty path is a no-op.
func writeSides(path string, n int, p *hgpart.Partition) {
	writeAssignment(path, n, func(v int) int32 { return int32(p.Side(int32(v))) })
}

// writeAssignment writes one part id per line for n vertices.
func writeAssignment(path string, n int, part func(int) int32) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(f)
	for v := 0; v < n; v++ {
		fmt.Fprintf(w, "%d\n", part(v))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("assignment written to %s\n", path)
}

func loadInstance(inPath, arePath string, ibm int, scale float64) (*hgpart.Hypergraph, error) {
	if ibm > 0 {
		spec, err := hgpart.IBMProfile(ibm)
		if err != nil {
			return nil, err
		}
		if scale < 1 {
			spec = hgpart.Scaled(spec, scale)
		}
		return hgpart.Generate(spec)
	}
	if inPath == "" {
		return nil, fmt.Errorf("need -in <file> or -ibm <n>")
	}
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(inPath, ".hgr") {
		return hgpart.ParseHGR(f, inPath)
	}
	var are *os.File
	if arePath != "" {
		are, err = os.Open(arePath)
		if err != nil {
			return nil, err
		}
		defer are.Close()
		return hgpart.ParseNetD(f, are, inPath)
	}
	return hgpart.ParseNetD(f, nil, inPath)
}

// Exit codes, documented in the command comment above. fatal classifies
// netlist parse failures as usage errors even when they surface late.
const (
	exitInternal   = 1
	exitUsage      = 2
	exitInfeasible = 3
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgpart:", err)
	if _, ok := hgpart.AsParseError(err); ok {
		os.Exit(exitUsage)
	}
	os.Exit(exitInternal)
}

// fatalUsage reports a bad flag combination or unreadable/unparsable input.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "hgpart:", err)
	os.Exit(exitUsage)
}

// fatalInfeasible reports that no legal partition exists within the balance
// tolerance — a property of the request, not a bug.
func fatalInfeasible(err error) {
	fmt.Fprintln(os.Stderr, "hgpart:", err)
	os.Exit(exitInfeasible)
}
