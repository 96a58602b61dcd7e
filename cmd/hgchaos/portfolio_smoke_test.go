package main

// TestPortfolioChaosSmoke is part of the `make portfolio-smoke` CI gate:
// build hgserved with the race detector and run the portfolio scenario —
// mode=portfolio reports must be byte-identical across a cache-hit repeat,
// a daemon restart on the same checkpoint dir, a daemon with no checkpoint
// dir, and 1/2/3-worker cluster topologies.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

func TestPortfolioChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio smoke boots real daemon fleets; skipped in -short")
	}
	workdir := t.TempDir()
	bin := hgservedBin(t, true)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var out bytes.Buffer
	rc := run(ctx, options{
		bin:       bin,
		seed:      7,
		starts:    4,
		scale:     0.1,
		scenarios: []string{"portfolio"},
		workdir:   filepath.Join(workdir, "harness"),
		out:       &out,
	})
	t.Logf("harness output:\n%s", out.String())
	if rc != 0 {
		t.Fatalf("hgchaos exit code %d, want 0", rc)
	}
	for _, want := range []string{
		"repeat was a byte-identical cache hit",
		"restart recomputed byte-identical bytes",
		"no-checkpoint daemon byte-identical",
		"3 worker(s) byte-identical",
		"portfolio  PASS",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("harness output lacks %q", want)
		}
	}
}
