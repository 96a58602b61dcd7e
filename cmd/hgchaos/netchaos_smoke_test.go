package main

// TestNetChaosSmoke is the `make netchaos-smoke` CI gate: build hgserved
// with the race detector and run the network chaos scenarios — a blackholed
// worker tripping its breaker with failover to the survivor, a slow peer
// demoting to a local compute, bit-corrupted dispatch and peer responses
// caught by the sha256 envelope (cache never poisoned), and a flapping
// worker whose breaker recovers closed. Every path must reproduce the
// uninterrupted single-node baseline byte for byte.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestNetChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("net chaos smoke boots real daemon fleets; skipped in -short")
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
		scenarios: netScenarioNames,
		workdir:   filepath.Join(workdir, "harness"),
		out:       &out,
	})
	t.Logf("harness output:\n%s", out.String())
	if rc != 0 {
		t.Fatalf("hgchaos exit code %d, want 0", rc)
	}
	for _, want := range []string{
		"net-partition", "slow-peer", "corrupt-response", "flapping-worker",
		"breaker open", "cache never poisoned", "byte-identical",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("harness output lacks %q", want)
		}
	}
}
