package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
)

// The instance hash keys every result-cache entry and every job journal: a
// silent change to the canonical serialization orphans all of them, so
// these digests must never move.
const (
	tinyHGRDigest      = "0fd1790261bcdfb817ff4597ebafce8a8f0bc355d76d554c78778537e44d84fc"
	ibm01QuarterDigest = "b5183b70445c2b5b064413ce2533b029ba765db200843f71e5e2abf2e96d68b7"
)

// quarterIBM01 is the quarter-scale ibm01-like instance (3188 cells, 3530
// nets, 11617 pins).
func quarterIBM01(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	h, err := gen.Generate(gen.Scaled(gen.MustIBMProfile(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInstanceHashGolden(t *testing.T) {
	data, err := os.ReadFile("../netlist/testdata/tiny.hgr")
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := netlist.ParseHGR(bytes.NewReader(data), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want string
	}{
		{"tiny.hgr", tiny, tinyHGRDigest},
		{"ibm01@0.25", quarterIBM01(t), ibm01QuarterDigest},
	} {
		if got := instanceHash(tc.h); got != tc.want {
			t.Errorf("%s: instanceHash = %s, want %s", tc.name, got, tc.want)
		}
		// The hash covers exactly what WriteHGR writes after its comment line.
		var sb strings.Builder
		if err := netlist.WriteHGR(&sb, tc.h); err != nil {
			t.Fatal(err)
		}
		_, body, ok := strings.Cut(sb.String(), "\n")
		if !ok || !strings.HasPrefix(sb.String(), "%") {
			t.Fatalf("%s: WriteHGR output does not open with a comment line", tc.name)
		}
		sum := sha256.Sum256([]byte(body))
		if got, want := instanceHash(tc.h), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: instanceHash = %s, sha256(WriteHGR minus comment) = %s", tc.name, got, want)
		}
	}
}

// TestIngestAllocationBounds bounds the allocations of the cache-hit ingest
// path on the quarter-scale ibm01-like instance: a constant number per parse
// and per hash, not one or more per line or per pin.
func TestIngestAllocationBounds(t *testing.T) {
	h := quarterIBM01(t)
	var sb strings.Builder
	if err := netlist.WriteHGR(&sb, h); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	parse := testing.AllocsPerRun(10, func() {
		if _, err := netlist.ParseHGR(strings.NewReader(text), "q"); err != nil {
			t.Fatal(err)
		}
	})
	hash := testing.AllocsPerRun(10, func() { instanceHash(h) })
	t.Logf("allocations: ParseHGR %.0f, instanceHash %.0f", parse, hash)
	if parse > 64 {
		t.Errorf("ParseHGR made %.0f allocations, want at most 64", parse)
	}
	if hash > 8 {
		t.Errorf("instanceHash made %.0f allocations, want at most 8", hash)
	}
}

func BenchmarkInstanceHash(b *testing.B) {
	h := quarterIBM01(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instanceHash(h)
	}
}
