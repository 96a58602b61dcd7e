package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The worker-count invariance contract, end to end through the CLI: the same
// seed must produce byte-identical reports at -workers=1 and -workers=4.
// This is the user-visible face of the pre-split seed discipline that the
// seedflow analyzer guards statically.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func hgpartBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hgpart-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "hgpart")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			buildBin = ""
			t.Logf("go build output:\n%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building hgpart: %v", buildErr)
	}
	return buildBin
}

var (
	timeLineRE      = regexp.MustCompile(`(?m)^time=[^\n]*\n`)
	workersRE       = regexp.MustCompile(`workers=\d+`)
	refineThreadsRE = regexp.MustCompile(`refine-threads=\d+`)
)

// normalize strips the report lines that legitimately vary between runs:
// wall-clock timing and the echoes of the -workers and -refine-threads
// flags themselves (both are implementation knobs that must not change the
// computed bytes).
func normalize(out []byte) string {
	s := timeLineRE.ReplaceAllString(string(out), "")
	s = workersRE.ReplaceAllString(s, "workers=N")
	return refineThreadsRE.ReplaceAllString(s, "refine-threads=N")
}

func runHgpart(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(hgpartBinary(t), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hgpart %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return normalize(out)
}

func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	base := []string{"-ibm", "1", "-scale", "0.1", "-starts", "8", "-seed", "7", "-q"}
	for _, engine := range []string{"ml", "flat"} {
		args := append([]string{"-engine", engine}, base...)
		serial := runHgpart(t, append(args, "-workers", "1")...)
		parallel := runHgpart(t, append(args, "-workers", "4")...)
		if serial != parallel {
			t.Errorf("engine %s: -workers=1 and -workers=4 reports differ\n--- workers=1 ---\n%s--- workers=4 ---\n%s",
				engine, serial, parallel)
		}
	}
}

// Plain hgpart is the multistart harness at GOMAXPROCS workers: with no
// -workers flag it must print what -workers 1 and -workers 4 print, for
// every 2-way engine.
func TestPlainMatchesWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	for _, engine := range []string{"ml", "flat", "clip"} {
		for _, seed := range []string{"1", "7", "13"} {
			args := []string{"-engine", engine, "-ibm", "1", "-scale", "0.1", "-starts", "4", "-seed", seed, "-q"}
			plain := runHgpart(t, args...)
			for _, workers := range []string{"1", "4"} {
				if got := runHgpart(t, append(args, "-workers", workers)...); got != plain {
					t.Errorf("engine %s seed %s: plain and -workers %s reports differ\n--- plain ---\n%s--- workers=%s ---\n%s",
						engine, seed, workers, plain, workers, got)
				}
			}
		}
	}
}

// -seed seeds the partitioner, never the generated -ibm instance: the
// instance statistics on stderr are the same at every seed, so the CLI
// partitions the netlist hgserved builds for the same benchmark and scale.
func TestSeedKeepsGeneratedInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	stats := func(seed string) string {
		cmd := exec.Command(hgpartBinary(t), "-ibm", "1", "-scale", "0.05", "-seed", seed)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hgpart -seed %s: %v\nstderr: %s", seed, err, stderr.String())
		}
		return stderr.String()
	}
	if one, seven := stats("1"), stats("7"); one != seven {
		t.Errorf("instance statistics depend on -seed\n--- seed 1 ---\n%s--- seed 7 ---\n%s", one, seven)
	}
}

// A run resumed from a fully journaled checkpoint reports what the
// uninterrupted run reported: the finish step recovers the best start's
// partition from the journal and polishes it the same way.
func TestResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"-ibm", "1", "-scale", "0.1", "-starts", "6", "-seed", "7", "-q", "-checkpoint", journal}
	full := runHgpart(t, args...)
	if resumed := runHgpart(t, append(args, "-resume")...); resumed != full {
		t.Errorf("resumed report differs from the uninterrupted one\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
}

// -work-budget bounds the fixed-engine multistart too: with one worker the
// first start already spends the budget of 1, so the other seven are skipped.
func TestWorkBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	out := runHgpart(t, "-ibm", "1", "-scale", "0.1", "-starts", "8", "-workers", "1", "-work-budget", "1", "-q")
	if !strings.Contains(out, "ok=1 failed=0 skipped=7 ") || !strings.Contains(out, "incomplete=work budget exhausted") {
		t.Fatalf("budgeted run did not stop after one start:\n%s", out)
	}
}

func TestRunToRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	args := []string{"-ibm", "1", "-scale", "0.1", "-starts", "8", "-seed", "11", "-q", "-workers", "4"}
	first := runHgpart(t, args...)
	second := runHgpart(t, args...)
	if first != second {
		t.Errorf("two identical invocations differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestRefineThreadsInvariance extends the worker-count contract to
// intra-job parallelism: the synchronous-round parallel k-way refiner must
// emit byte-identical reports AND byte-identical assignment files at
// -refine-threads 1, 2, 4 and 8. Unlike -workers (which parallelizes
// independent starts), -refine-threads parallelizes the moves inside one
// refinement, so this is the end-to-end face of the kwayfm differential
// oracle tests.
func TestRefineThreadsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	// Same output path for every run: the report echoes it, and the report
	// comparison is exact.
	outFile := filepath.Join(t.TempDir(), "assign")
	run := func(threads string) (report, assignment string) {
		report = runHgpart(t,
			"-ibm", "1", "-scale", "0.1", "-k", "8", "-krefine",
			"-refine-threads", threads, "-starts", "2", "-seed", "23", "-q",
			"-o", outFile)
		raw, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatalf("reading assignment file: %v", err)
		}
		return report, string(raw)
	}
	wantReport, wantAssign := run("1")
	if !strings.Contains(wantReport, "refine-threads=N") {
		t.Fatalf("report does not echo refine-threads:\n%s", wantReport)
	}
	for _, threads := range []string{"2", "4", "8"} {
		report, assign := run(threads)
		if report != wantReport {
			t.Errorf("-refine-threads=%s report differs from 1\n--- 1 ---\n%s--- %s ---\n%s",
				threads, wantReport, threads, report)
		}
		if assign != wantAssign {
			t.Errorf("-refine-threads=%s assignment file differs from 1", threads)
		}
	}
}

// The optimized arena engine must be a pure performance change: with the same
// seed, `-impl optimized` (the default) and `-impl reference` (the frozen seed
// implementation) must emit byte-identical reports — same cuts, same
// balances, same best-start indices — across every engine and the direct
// k-way refinement path. This is the end-to-end face of the package-level
// differential tests in internal/core and internal/kwayfm.
func TestImplEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgpart binary")
	}
	cases := [][]string{
		{"-engine", "ml", "-ibm", "1", "-scale", "0.1", "-starts", "6", "-seed", "17", "-q"},
		// 3826 cells: the finest levels are large enough for the multilevel
		// refiner's idle-move limit to end passes.
		{"-engine", "ml", "-ibm", "1", "-scale", "0.3", "-starts", "2", "-seed", "17", "-q"},
		{"-engine", "flat", "-ibm", "1", "-scale", "0.1", "-starts", "6", "-seed", "17", "-q"},
		{"-engine", "clip", "-ibm", "1", "-scale", "0.1", "-starts", "6", "-seed", "17", "-q"},
		{"-k", "4", "-krefine", "-ibm", "1", "-scale", "0.1", "-starts", "2", "-seed", "19", "-q"},
	}
	for _, args := range cases {
		optimized := runHgpart(t, append([]string{"-impl", "optimized"}, args...)...)
		reference := runHgpart(t, append([]string{"-impl", "reference"}, args...)...)
		if optimized != reference {
			t.Errorf("%v: -impl optimized and -impl reference reports differ\n--- optimized ---\n%s--- reference ---\n%s",
				args, optimized, reference)
		}
	}
}
