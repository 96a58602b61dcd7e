package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI contract for scripting: documented exit codes (0 ok, 1 internal,
// 2 usage/parse, 3 infeasible balance) and the -o assignment file.

func runForExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(hgpartBinary(t), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("hgpart %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestExitCodeUsage(t *testing.T) {
	cases := [][]string{
		{"-ibm", "1", "-scale", "2"},            // bad flag value
		{"-ibm", "1", "-tol", "1.5"},            // bad tolerance
		{},                                      // no input at all
		{"-ibm", "1", "-engine", "quantum"},     // unknown engine
		{"-in", "/nonexistent/never.hgr", "-q"}, // unreadable input
		{"-ibm", "1", "-scale", "0.02", "-starts", "-1"},              // negative starts
		{"-ibm", "1", "-scale", "0.02", "-starts", "0", "-portfolio"}, // zero starts (portfolio)
	}
	for _, args := range cases {
		if code, out := runForExit(t, args...); code != 2 {
			t.Errorf("hgpart %v: exit %d, want 2\n%s", args, code, out)
		}
	}
	// Out-of-range counts and durations, and an engine name on the k-way
	// path that never consults it, fail before the instance loads, with an
	// error naming the flag.
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-k", []string{"-k", "1"}},
		{"-k", []string{"-k", "0"}},
		{"-k", []string{"-k", "-3"}},
		{"-vcycles", []string{"-vcycles", "-1"}},
		{"-retries", []string{"-retries", "-1"}},
		{"-workers", []string{"-workers", "-2"}},
		{"-timeout", []string{"-timeout", "-1s"}},
		{"-engine", []string{"-k", "3", "-engine", "bogus"}},
		{"-work-budget", []string{"-work-budget", "-1"}},
		// A work budget bounds a multistart; these paths run none.
		{"-work-budget", []string{"-work-budget", "1", "-k", "3"}},
		{"-work-budget", []string{"-work-budget", "1", "-engine", "spectral"}},
		{"-work-budget", []string{"-work-budget", "1", "-engine", "flat", "-trace", "/nonexistent/trace.csv"}},
	} {
		args := append([]string{"-ibm", "1", "-scale", "0.02", "-q"}, c.args...)
		code, out := runForExit(t, args...)
		if code != 2 {
			t.Errorf("hgpart %v: exit %d, want 2\n%s", args, code, out)
		} else if !strings.Contains(out, c.flag+" ") {
			t.Errorf("hgpart %v: error %q does not name %s", args, out, c.flag)
		}
	}
}

func TestExitCodeParseError(t *testing.T) {
	// A malformed .hgr (header promises more nets than provided) must be a
	// usage error (2), not a panic or an internal error.
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.hgr")
	if err := os.WriteFile(path, []byte("3 2 11\n1 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runForExit(t, "-in", path, "-q")
	if code != 2 {
		t.Fatalf("malformed hgr: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "netlist:") {
		t.Fatalf("error output %q does not name the parser", out)
	}
}

func TestExitCodeInfeasible(t *testing.T) {
	// Two wildly unequal vertices and a tight tolerance: no legal bisection.
	dir := t.TempDir()
	path := filepath.Join(dir, "skew.hgr")
	if err := os.WriteFile(path, []byte("1 2 11\n1 1 2\n1\n1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runForExit(t, "-in", path, "-q", "-engine", "flat", "-tol", "0.001")
	if code != 3 {
		t.Fatalf("infeasible balance: exit %d, want 3\n%s", code, out)
	}
}

func TestOutputAssignment(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "x.part")
	code, out := runForExit(t, "-ibm", "1", "-scale", "0.1", "-engine", "flat",
		"-starts", "2", "-q", "-o", outFile)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("assignment file not written: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	zeros, ones := 0, 0
	for i, ln := range lines {
		switch ln {
		case "0":
			zeros++
		case "1":
			ones++
		default:
			t.Fatalf("line %d is %q, want 0 or 1", i+1, ln)
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate assignment: %d zeros, %d ones", zeros, ones)
	}

	// The assignment file is worker-count invariant: the same seed yields
	// byte-identical assignments at -workers 1 and 2.
	assign := func(name string, workers string) string {
		f := filepath.Join(dir, name)
		code, out := runForExit(t, "-ibm", "1", "-scale", "0.1", "-engine", "flat",
			"-starts", "2", "-q", "-workers", workers, "-o", f)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, out)
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if assign("w1.part", "1") != assign("w2.part", "2") {
		t.Fatal("assignment differs across worker counts")
	}

	// k-way assignments carry part ids for every vertex.
	outFile3 := filepath.Join(dir, "k.part")
	code, out = runForExit(t, "-ibm", "1", "-scale", "0.1", "-k", "4",
		"-starts", "1", "-q", "-o", outFile3)
	if code != 0 {
		t.Fatalf("k-way exit %d\n%s", code, out)
	}
	data3, err := os.ReadFile(outFile3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimRight(string(data3), "\n"), "\n")); n != len(lines) {
		t.Fatalf("k-way assignment has %d lines, bisection had %d", n, len(lines))
	}
}
