package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hgpart/internal/netlist"
	"hgpart/internal/service"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func hggenBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hggen-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "hggen")
		if out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building hggen: %v", buildErr)
	}
	return buildBin
}

// runHggen runs hggen in dir and returns its stdout.
func runHggen(t *testing.T, dir string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(hggenBinary(t), args...)
	cmd.Dir = dir
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hggen %v: %v\nstderr: %s", args, err, errBuf.String())
	}
	return out, errBuf.Bytes()
}

func sum(data []byte) string { return fmt.Sprintf("%x", sha256.Sum256(data)) }

// TestGenerateGolden pins hggen's bytes: both output formats at the default
// seed, an explicit instance seed, unit areas and a custom -cells spec. The
// transcript holds each run's stderr and the sha256 of stdout and of every
// file written. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/hggen.
func TestGenerateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hggen binary")
	}
	dir := t.TempDir()
	var transcript strings.Builder
	for _, args := range [][]string{
		{"-ibm", "1", "-scale", "0.05", "-format", "hgr"},
		{"-ibm", "1", "-scale", "0.05", "-format", "netd", "-o", "g"},
		{"-ibm", "1", "-scale", "0.05", "-seed", "7", "-o", "seven.hgr"},
		{"-ibm", "1", "-scale", "0.05", "-unit"},
		{"-ibm", "3", "-scale", "0.03", "-seed", "7", "-unit", "-format", "netd", "-o", "u"},
		{"-cells", "300", "-nets", "330", "-avgnet", "3.4"},
		{"-cells", "300", "-nets", "330", "-avgnet", "3.4", "-scale", "0.5", "-seed", "9"},
	} {
		stdout, stderr := runHggen(t, dir, args...)
		fmt.Fprintf(&transcript, "$ hggen %s\n%sstdout sha256=%s\n", strings.Join(args, " "), stderr, sum(stdout))
		for _, name := range []string{"g.netD", "g.are", "seven.hgr", "u.netD", "u.are"} {
			path := filepath.Join(dir, name)
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(&transcript, "wrote %s sha256=%s\n", name, sum(data))
				os.Remove(path)
			}
		}
	}
	golden := filepath.Join("testdata", "generate.golden")
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
		t.Fatalf("hggen output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, transcript.String(), want)
	}
}

// hggen -seed X writes the instance hgserved partitions for
// {"instance_seed":X}: one seed rule for every instance source.
func TestSeedMatchesServedInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hggen binary")
	}
	cfg := service.DefaultConfig()
	cfg.Workers = 1
	cfg.StartWorkers = 1
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	for _, seed := range []string{"1", "7"} {
		out, _ := runHggen(t, t.TempDir(), "-ibm", "1", "-scale", "0.1", "-seed", seed)
		h, err := netlist.ParseHGR(bytes.NewReader(out), "hggen")
		if err != nil {
			t.Fatal(err)
		}
		var canon bytes.Buffer
		if err := netlist.WriteCanonicalHGR(&canon, h); err != nil {
			t.Fatal(err)
		}
		body := `{"benchmark":"ibm01","scale":0.1,"starts":1,"instance_seed":` + seed + `}`
		resp, err := http.Post(hs.URL+"/v1/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep service.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode error %v", body, resp.StatusCode, err)
		}
		if got := sum(canon.Bytes()); got != rep.InstanceHash {
			t.Errorf("hggen -seed %s hashes to %s, hgserved instance_seed %s to %s", seed, got, seed, rep.InstanceHash)
		}
	}
}
