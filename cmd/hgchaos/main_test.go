package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The scenario lists the cluster and net smoke tests run.
var (
	clusterScenarioNames = []string{
		"cluster-topology", "cluster-worker-kill", "cluster-coord-kill", "cluster-degrade",
	}
	netScenarioNames = []string{
		"net-partition", "slow-peer", "corrupt-response", "flapping-worker",
	}
)

// builds caches one hgserved binary per flavour (plain or -race) for the
// whole test process; TestMain removes them when the run ends.
var builds struct {
	sync.Mutex
	dir string
	bin map[bool]string
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hgchaos-bin-*")
	if err != nil {
		panic(err)
	}
	builds.dir, builds.bin = dir, map[bool]string{}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// hgservedBin builds hgserved on first use of its flavour and returns the
// binary's path. With race the daemon itself runs under the race detector,
// so the cluster and chaos code paths it exercises are checked too.
func hgservedBin(t *testing.T, race bool) string {
	t.Helper()
	builds.Lock()
	defer builds.Unlock()
	if bin, ok := builds.bin[race]; ok {
		return bin
	}
	args := []string{"build"}
	bin := filepath.Join(builds.dir, "hgserved")
	if race {
		args = append(args, "-race")
		bin += "-race"
	}
	args = append(args, "-o", bin, "hgpart/cmd/hgserved")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	builds.bin[race] = bin
	return bin
}

// An unknown name is refused before any daemon boots: the bogus binary
// below would fail the baseline boot first if the names were checked late.
func TestUnknownScenarioFailsFirst(t *testing.T) {
	var out bytes.Buffer
	rc := run(context.Background(), options{
		bin:       filepath.Join(t.TempDir(), "no-such-hgserved"),
		seed:      7,
		starts:    2,
		scale:     0.05,
		scenarios: []string{"mid-record", "nope"},
		workdir:   t.TempDir(),
		out:       &out,
	})
	if rc != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", rc, out.String())
	}
	if !strings.Contains(out.String(), `unknown scenario "nope"`) {
		t.Fatalf("output does not name the unknown scenario:\n%s", out.String())
	}
	if strings.Contains(out.String(), "baseline") {
		t.Fatalf("a daemon boot was attempted before the names were checked:\n%s", out.String())
	}
}

// A run that fails keeps its temporary workdir, daemon logs included, and
// names it; only a run that exits 0 removes it.
func TestFailedRunKeepsWorkdir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	rc := run(context.Background(), options{
		bin:       filepath.Join(tmp, "no-such-hgserved"),
		seed:      7,
		starts:    2,
		scale:     0.05,
		scenarios: []string{"mid-record"},
		out:       &out,
	})
	if rc == 0 {
		t.Fatalf("run against a missing binary exited 0:\n%s", out.String())
	}
	_, dir, ok := strings.Cut(out.String(), "hgchaos: workdir kept: ")
	if !ok {
		t.Fatalf("output does not name the kept workdir:\n%s", out.String())
	}
	dir = strings.TrimSpace(dir)
	if filepath.Dir(dir) != tmp {
		t.Fatalf("kept workdir %q is not a fresh directory under %q", dir, tmp)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("kept workdir %q is gone: %v", dir, err)
	}
}
