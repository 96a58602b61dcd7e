package eval_test

// Seeded fault injection for the harness tests: faultConfig and wrapFaults
// wrap any eval.Heuristic with panics, stalls and silent partition
// corruption at configurable rates, so the harness's fault-tolerance claims
// are proved the way the paper proves algorithmic claims — by experiment. A
// panicking start must be recorded as failed without aborting its siblings,
// a corrupted outcome must be caught by invariant verification, and
// per-start results must stay deterministic across worker counts even when
// faults fire.
//
// All fault decisions derive from the start's own generator (one draw from
// the per-start RNG seeds a private fault stream), so whether a given start
// faults is a pure function of the root seed and start index — never of
// scheduling. Injected panics carry errInjectedPanic, so tests can
// distinguish injected faults from real bugs.

import (
	"context"
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hgpart/internal/chaos"
	"hgpart/internal/core"
	"hgpart/internal/eval"
	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

// errInjectedPanic is the value injected panics carry.
var errInjectedPanic = errors.New("injected panic")

// faultConfig sets per-start fault probabilities. All probabilities are
// independent and evaluated in a fixed order (stall, panic, corrupt) from
// the start's private fault stream.
type faultConfig struct {
	// PanicProb is the probability that a start panics before running.
	PanicProb float64
	// StallProb is the probability that a start sleeps for StallFor before
	// running — a model of a hung I/O or a scheduling stall.
	StallProb float64
	// StallFor is the stall duration (default 10ms when StallProb > 0).
	StallFor time.Duration
	// CorruptProb is the probability that a completed start's partition is
	// silently modified after its cut was measured: a random free vertex is
	// flipped, so the outcome reports a cut its partition no longer has.
	// Harness-level verification (eval.VerifyOutcome) must catch this.
	CorruptProb float64
	// Salt perturbs the fault stream without touching the heuristic's
	// randomness, so different fault scenarios can share a root seed.
	Salt uint64
}

// faulty is a Heuristic wrapped with fault injection.
type faulty struct {
	inner eval.Heuristic
	cfg   faultConfig
}

// wrapFaults returns h with faults injected per cfg.
func wrapFaults(h eval.Heuristic, cfg faultConfig) *faulty {
	if cfg.StallProb > 0 && cfg.StallFor <= 0 {
		cfg.StallFor = 10 * time.Millisecond
	}
	return &faulty{inner: h, cfg: cfg}
}

// Name implements eval.Heuristic.
func (f *faulty) Name() string { return f.inner.Name() + "+faults" }

// Run implements eval.Heuristic: it draws the start's fault decisions, then
// delegates to the wrapped heuristic. The single Uint64 drawn from r to seed
// the fault stream shifts the inner heuristic's randomness relative to an
// unwrapped run, but identically so for every execution schedule — the
// determinism contract of the harness is preserved.
func (f *faulty) Run(r *rng.RNG) eval.Outcome {
	fr := rng.New(r.Uint64() ^ f.cfg.Salt)
	if f.cfg.StallProb > 0 && fr.Float64() < f.cfg.StallProb {
		time.Sleep(f.cfg.StallFor)
	}
	if f.cfg.PanicProb > 0 && fr.Float64() < f.cfg.PanicProb {
		panic(errInjectedPanic)
	}
	o := f.inner.Run(r)
	if f.cfg.CorruptProb > 0 && fr.Float64() < f.cfg.CorruptProb && o.P != nil {
		corrupt(o.P, fr)
	}
	return o
}

// PolishBest implements eval.Heuristic by delegating; polish runs once on
// the best solution and is not a fault-injection target.
func (f *faulty) PolishBest(p *partition.P, r *rng.RNG) eval.Outcome {
	return f.inner.PolishBest(p, r)
}

// corrupt flips one random movable vertex of p — after the outcome's cut was
// recorded, so the reported number silently disagrees with the partition.
func corrupt(p *partition.P, fr *rng.RNG) {
	n := p.H.NumVertices()
	if n == 0 {
		return
	}
	at := fr.Intn(n)
	for i := 0; i < n; i++ {
		v := int32((at + i) % n)
		if !p.IsFixed(v) {
			p.Move(v)
			return
		}
	}
}

func faultInstance(tb testing.TB) (*hypergraph.Hypergraph, partition.Balance) {
	tb.Helper()
	h, err := gen.Generate(gen.Spec{
		Name: "faultinject-test", Cells: 120, Nets: 140, AvgNetSize: 3.0,
		NumMacros: 1, MaxMacroFrac: 0.03, NumGlobalNets: 1,
		GlobalNetFrac: 0.02, Locality: 2, Seed: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h, partition.NewBalance(h.TotalVertexWeight(), 0.10)
}

func newFaulty(tb testing.TB, cfg faultConfig) *faulty {
	h, bal := faultInstance(tb)
	return wrapFaults(eval.NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(17)), cfg)
}

// panicPattern runs one start per seed and records which seeds panic.
func panicPattern(f *faulty, seeds []uint64) []bool {
	out := make([]bool, len(seeds))
	for i, s := range seeds {
		out[i] = func() (panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			f.Run(rng.New(s))
			return false
		}()
	}
	return out
}

// Fault decisions must be a pure function of the start's seed: the same seeds
// panic on every replay, different salts reshuffle the pattern.
func TestFaultDecisionsAreSeedDeterministic(t *testing.T) {
	seeds := make([]uint64, 32)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	f := newFaulty(t, faultConfig{PanicProb: 0.5, Salt: 4})
	a := panicPattern(f, seeds)
	b := panicPattern(f, seeds)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: fault decision changed across replays", seeds[i])
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(seeds) {
		t.Fatalf("p=0.5 over 32 seeds produced %d panics — stream looks degenerate", hits)
	}
	salted := panicPattern(newFaulty(t, faultConfig{PanicProb: 0.5, Salt: 999}), seeds)
	same := true
	for i := range a {
		if a[i] != salted[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing Salt left the fault pattern unchanged")
	}
}

func TestInjectedPanicCarriesSentinel(t *testing.T) {
	f := newFaulty(t, faultConfig{PanicProb: 1})
	defer func() {
		v := recover()
		err, ok := v.(error)
		if !ok || !errors.Is(err, errInjectedPanic) {
			t.Fatalf("panic value %v is not errInjectedPanic", v)
		}
	}()
	f.Run(rng.New(1))
	t.Fatal("PanicProb=1 did not panic")
}

// Corruption mutates the partition only after the outcome's cut was taken, so
// the reported cut disagrees with the partition — exactly the silent failure
// eval.VerifyOutcome exists to catch.
func TestCorruptionBreaksCutAgreement(t *testing.T) {
	f := newFaulty(t, faultConfig{CorruptProb: 1})
	o := f.Run(rng.New(8))
	if o.P == nil {
		t.Fatal("no partition returned")
	}
	if o.Cut == o.P.Cut() {
		t.Fatal("CorruptProb=1 left outcome cut and partition cut in agreement")
	}
	if err := core.VerifyPartitionState(o.P); err != nil {
		t.Fatalf("corruption must keep the partition internally consistent, got %v", err)
	}
}

func TestStallDelaysRun(t *testing.T) {
	f := newFaulty(t, faultConfig{StallProb: 1, StallFor: 30 * time.Millisecond})
	begin := time.Now()
	f.Run(rng.New(5))
	if d := time.Since(begin); d < 25*time.Millisecond {
		t.Fatalf("StallFor=30ms but run returned after %v", d)
	}
	if wrapFaults(nil, faultConfig{StallProb: 0.5}).cfg.StallFor <= 0 {
		t.Fatal("default StallFor not applied")
	}
}

func TestNameMarksWrappedHeuristic(t *testing.T) {
	f := newFaulty(t, faultConfig{})
	if f.Name() != "flat+faults" {
		t.Fatalf("Name() = %q", f.Name())
	}
}

// Checkpoint-write faults: a full disk or a failing fsync must never abort
// the computation (the answer is still correct), but it must surface as a
// hard JournalErr — silently pretending the journal is durable is exactly
// the failure crash recovery cannot tolerate.

func TestJournalWriteFaultsSurfaceAsHardErrors(t *testing.T) {
	cases := []struct {
		name string
		rule chaos.Rule
		want error
	}{
		{
			name: "enospc on record write",
			rule: chaos.Rule{Op: chaos.OpWrite, Path: ".jsonl", Nth: 3, Fault: chaos.FaultErr, Err: syscall.ENOSPC},
			want: syscall.ENOSPC,
		},
		{
			name: "failed fsync",
			rule: chaos.Rule{Op: chaos.OpSync, Path: ".jsonl", Nth: 3, Fault: chaos.FaultErr, Err: syscall.EIO},
			want: syscall.EIO,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, bal := faultInstance(t)
			factory := func() eval.Heuristic {
				return eval.NewFlat("flat", h, core.StrongConfig(false), bal, rng.New(17))
			}
			fsys := chaos.NewFaultFS(chaos.OS(), chaos.Config{Rules: []chaos.Rule{tc.rule}})
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			cp, err := eval.OpenCheckpointFS(fsys, path, "journal-fault", 5, 4, false)
			if err != nil {
				t.Fatalf("open checkpoint: %v", err)
			}
			defer cp.Close()

			rep := eval.RunMultistart(context.Background(), factory, 4, 5,
				eval.RunOptions{Workers: 1, Checkpoint: cp, Verify: eval.VerifyOutcome(bal)})
			if rep.Completed != 4 || rep.Incomplete {
				t.Fatalf("journal fault aborted the run: %+v", rep)
			}
			if rep.JournalErr == nil {
				t.Fatal("JournalErr is nil: a failed durability write went unreported")
			}
			if !errors.Is(rep.JournalErr, tc.want) {
				t.Fatalf("JournalErr = %v, want errors.Is %v", rep.JournalErr, tc.want)
			}
			var inj *chaos.InjectedError
			if !errors.As(rep.JournalErr, &inj) {
				t.Fatalf("JournalErr %v should carry the chaos.InjectedError locus", rep.JournalErr)
			}
		})
	}
}
