package main

// TestChaosSmoke is the `make chaos-smoke` CI gate: build the real hgserved
// binary, then run the full kill/restart harness in-process against it. It
// exercises every scenario — SIGKILL mid-record-write (torn tail +
// quarantine), mid-fsync, and mid-drain — and holds the byte-identity
// guarantee: a recovered report equals the uninterrupted one.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke boots real daemons; skipped in -short")
	}
	workdir := t.TempDir()
	bin := hgservedBin(t, false)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var out bytes.Buffer
	rc := run(ctx, options{
		bin:       bin,
		seed:      7,
		starts:    6,
		scale:     0.2,
		scenarios: []string{"mid-record", "mid-fsync", "mid-drain"},
		workdir:   filepath.Join(workdir, "harness"),
		out:       &out,
	})
	t.Logf("harness output:\n%s", out.String())
	if rc != 0 {
		t.Fatalf("hgchaos exit code %d, want 0", rc)
	}
	for _, want := range []string{"mid-record", "mid-fsync", "mid-drain", "byte-identical"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("harness output lacks %q", want)
		}
	}
}
