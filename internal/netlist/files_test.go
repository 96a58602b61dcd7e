package netlist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFormatByExtension(t *testing.T) {
	for path, want := range map[string]string{
		"a.hgr": "hgr", "dir.hgr/a.netD": "netd", "a.net": "netd",
		"a.patoh": "patoh", "a.u": "patoh", "a": "netd", "a.txt": "netd",
	} {
		if got := formatOf(path); got != want {
			t.Errorf("formatOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// Every format WriteFiles writes, ReadFiles reads back to the same
// hypergraph, by extension or by an explicit Format.
func TestFilesRoundTrip(t *testing.T) {
	h := sample(t)
	dir := t.TempDir()
	for format, files := range map[string]Files{
		"hgr":       {Path: "rt.hgr"},
		"netd":      {Path: "rt.netD", Are: "rt.are"},
		"patoh":     {Path: "rt.patoh"},
		"bookshelf": {Nodes: "rt.nodes", Nets: "rt.nets"},
	} {
		base := filepath.Join(dir, format, "rt")
		if err := os.Mkdir(filepath.Dir(base), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFiles(h, nil, format, base); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		for _, p := range []*string{&files.Path, &files.Are, &files.Nodes, &files.Nets} {
			if *p != "" {
				*p = filepath.Join(filepath.Dir(base), *p)
			}
		}
		back, terminal, err := ReadFiles(files)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if format == "netd" {
			// ISPD98 numbers modules in first-appearance order: compare the
			// shape and the total area the .are file carried.
			if back.NumPins() != h.NumPins() || back.TotalVertexWeight() != h.TotalVertexWeight() {
				t.Fatalf("netd: %d pins, area %d; want %d, %d",
					back.NumPins(), back.TotalVertexWeight(), h.NumPins(), h.TotalVertexWeight())
			}
		} else {
			equalGraphs(t, h, back)
		}
		if (terminal != nil) != (format == "bookshelf") {
			t.Errorf("%s: terminal set %v", format, terminal != nil)
		}
		if format == "patoh" {
			renamed := strings.TrimSuffix(files.Path, ".patoh") + ".txt"
			if err := os.Rename(files.Path, renamed); err != nil {
				t.Fatal(err)
			}
			if back, _, err = ReadFiles(Files{Path: renamed, Format: "patoh"}); err != nil {
				t.Fatalf("-from patoh: %v", err)
			}
			equalGraphs(t, h, back)
		}
	}
}

func TestFilesErrors(t *testing.T) {
	dir := t.TempDir()
	hgr := filepath.Join(dir, "a.hgr")
	if err := os.WriteFile(hgr, []byte("1 2\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Areas belong to ISPD98 netlists only: another format never opens them.
	if _, _, err := ReadFiles(Files{Path: hgr, Are: filepath.Join(dir, "missing.are")}); err != nil {
		t.Errorf("hgr with a missing .are: %v", err)
	}
	if _, _, err := ReadFiles(Files{Path: hgr, Format: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown input format") {
		t.Errorf("unknown input format: %v", err)
	}
	if _, _, err := ReadFiles(Files{Path: filepath.Join(dir, "missing.hgr")}); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
	h, _, err := ReadFiles(Files{Path: hgr})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFiles(h, nil, "bogus", filepath.Join(dir, "out")); err == nil {
		t.Error("unknown output format accepted")
	}
	if err := WriteFiles(h, nil, "netd", filepath.Join(dir, "no", "such", "dir")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
