package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/netlist"
)

// TestConvertGolden pins hgconvert's bytes: every input format (hgr,
// netd+are, patoh, bookshelf) converted to every output format, on one small
// generated instance. The transcript holds each run's stderr and the sha256
// of every file it wrote. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/hgconvert.
func TestConvertGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgconvert binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hgconvert")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	h, err := gen.Generate(gen.Spec{
		Name: "convert-golden", Cells: 40, Nets: 44, AvgNetSize: 3.2,
		NumMacros: 1, MaxMacroFrac: 0.05, NumGlobalNets: 1, GlobalNetFrac: 0.05,
		Locality: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := netlist.WriteHGR(&src, h); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "src.hgr"), src.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var transcript strings.Builder
	run := func(args ...string) {
		before := listFiles(t, dir)
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		fmt.Fprintf(&transcript, "$ hgconvert %s\nerr=%v\n%s", strings.Join(args, " "), err, stderr.String())
		after := listFiles(t, dir)
		names := make([]string, 0, len(after))
		for f := range after {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			if before[f] != after[f] {
				fmt.Fprintf(&transcript, "wrote %s sha256=%s\n", f, after[f])
			}
		}
	}
	// One copy of the instance in every input format.
	for _, to := range []string{"netd", "patoh", "bookshelf"} {
		run("-in", "src.hgr", "-to", to, "-out", "src")
	}
	inputs := map[string][]string{
		"hgr":       {"-in", "src.hgr"},
		"netd":      {"-in", "src.netD", "-are", "src.are"},
		"patoh":     {"-in", "src.patoh"},
		"bookshelf": {"-nodes", "src.nodes", "-nets", "src.nets"},
	}
	for _, from := range []string{"hgr", "netd", "patoh", "bookshelf"} {
		for _, to := range []string{"hgr", "netd", "patoh", "bookshelf"} {
			run(append(append([]string(nil), inputs[from]...), "-to", to, "-out", from+"_"+to)...)
		}
	}
	checkGolden(t, "testdata/convert.golden", transcript.String())
}

// A Bookshelf-to-Bookshelf conversion keeps the terminal nodes it read.
func TestConvertKeepsTerminals(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgconvert binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hgconvert")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	nodes := "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a0 2 1\n a1 1 1 terminal\n a2 1 1\n"
	nets := "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\n a0 B\n a1 B\n a2 B\n"
	for name, text := range map[string]string{"in.nodes": nodes, "in.nets": nets} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, "-nodes", "in.nodes", "-nets", "in.nets", "-to", "bookshelf", "-out", "out")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hgconvert: %v\n%s", err, out)
	}
	got, err := os.ReadFile(filepath.Join(dir, "out.nodes"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "NumTerminals : 1\n") || !strings.Contains(string(got), "  o1 1 1 terminal\n") {
		t.Fatalf("terminal node lost in conversion:\n%s", got)
	}
}

// listFiles maps every regular file in dir to its sha256.
func listFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name() != "hgconvert" {
			files[e.Name()] = digest(t, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

func digest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
