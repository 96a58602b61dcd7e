package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/netlist"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func hgplaceBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hgplace-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "hgplace")
		if out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building hgplace: %v", buildErr)
	}
	return buildBin
}

var timeLineRE = regexp.MustCompile(`(?m)^time=[^\n]*\n`)

// runHgplace runs hgplace in dir and returns stdout without the time= line,
// and stderr.
func runHgplace(t *testing.T, dir string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(hgplaceBinary(t), args...)
	cmd.Dir = dir
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hgplace %v: %v\nstderr: %s", args, err, errBuf.String())
	}
	return timeLineRE.ReplaceAllString(string(out), ""), errBuf.String()
}

// TestPlaceGolden pins hgplace's bytes for each instance source: a generated
// -ibm instance, an -in .hgr file and a Bookshelf -nodes/-nets pair. The
// transcript holds stderr, stdout without the time= line and the sha256 of
// the -pl placement. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/hgplace.
func TestPlaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgplace binary")
	}
	dir := t.TempDir()
	h, err := gen.Generate(gen.Scaled(gen.MustIBMProfile(2), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fn func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("x.hgr", func(b *bytes.Buffer) error { return netlist.WriteHGR(b, h) })
	var nets bytes.Buffer
	terminal := make([]bool, h.NumVertices())
	terminal[0], terminal[3] = true, true
	write("d.nodes", func(b *bytes.Buffer) error { return netlist.WriteBookshelf(b, &nets, h, terminal) })
	write("d.nets", func(b *bytes.Buffer) error { _, err := b.Write(nets.Bytes()); return err })

	var transcript strings.Builder
	for _, args := range [][]string{
		{"-ibm", "1", "-scale", "0.05"},
		{"-ibm", "1", "-scale", "0.05", "-quad"},
		{"-in", "x.hgr", "-tol", "0.2", "-seed", "3"},
		{"-nodes", "d.nodes", "-nets", "d.nets", "-flat"},
	} {
		args = append(args, "-pl", "out.pl")
		stdout, stderr := runHgplace(t, dir, args...)
		pl, err := os.ReadFile(filepath.Join(dir, "out.pl"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&transcript, "$ hgplace %s\n%s%spl sha256=%x\n",
			strings.Join(args, " "), stderr, stdout, sha256.Sum256(pl))
	}
	golden := filepath.Join("testdata", "place.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if transcript.String() != string(want) {
		t.Fatalf("hgplace output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, transcript.String(), want)
	}
}

// -seed seeds the placer, never the generated -ibm instance: the instance
// statistics are the same at every seed, as they are for hgpart.
func TestPlaceSeedKeepsGeneratedInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hgplace binary")
	}
	stats := func(seed string) string {
		_, stderr := runHgplace(t, t.TempDir(), "-ibm", "1", "-scale", "0.05", "-seed", seed)
		return stderr
	}
	if one, seven := stats("1"), stats("7"); one != seven {
		t.Errorf("instance statistics depend on -seed\n--- seed 1 ---\n%s--- seed 7 ---\n%s", one, seven)
	}
}
