package main

// TestClusterSmoke is the `make cluster-smoke` CI gate: build hgserved with
// the race detector, boot coordinator + worker clusters, and run the
// cluster chaos scenarios — topology byte-identity (1/2/3 workers), worker
// SIGKILL mid-job with journal-backed failover to a survivor, coordinator
// SIGKILL mid-route with restart, and full degradation to local compute
// against a dead fleet. Every path must reproduce the uninterrupted
// single-node baseline byte for byte.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke boots real daemon fleets; skipped in -short")
	}
	workdir := t.TempDir()
	bin := hgservedBin(t, true)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var out bytes.Buffer
	rc := run(ctx, options{
		bin:       bin,
		seed:      7,
		starts:    6,
		scale:     0.12,
		scenarios: clusterScenarioNames,
		workdir:   filepath.Join(workdir, "harness"),
		out:       &out,
	})
	t.Logf("harness output:\n%s", out.String())
	if rc != 0 {
		t.Fatalf("hgchaos exit code %d, want 0", rc)
	}
	for _, want := range []string{
		"cluster-topology", "cluster-worker-kill", "cluster-coord-kill", "cluster-degrade",
		"resumed", "byte-identical",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("harness output lacks %q", want)
		}
	}
}
