package hgpart

import (
	"bytes"
	"testing"

	"hgpart/internal/kwayfm"
	"hgpart/internal/netlist"
	"hgpart/internal/rent"
)

// TestEndToEndPipeline drives the library surface the way a downstream user
// would — generate an instance, partition it with every engine, evaluate
// every objective, partition k-way and place it — and, through the internal
// packages the commands use, round-trips it through every file format,
// refines k-way directly and estimates its Rent exponent, asserting
// cross-component consistency at each step.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate.
	spec := Scaled(MustIBMProfile(3), 0.04)
	h := MustGenerate(spec)
	stats := ComputeStats(h)
	if stats.Vertices != h.NumVertices() {
		t.Fatal("stats disagree with instance")
	}

	// 2. Round-trip through every format; structural invariants must hold.
	type roundTrip struct {
		name string
		run  func() (*Hypergraph, error)
	}
	var hgr, netd, are, patoh, nodes, nets bytes.Buffer
	if err := netlist.WriteHGR(&hgr, h); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteNetD(&netd, h); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteAre(&are, h); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WritePaToH(&patoh, h); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBookshelf(&nodes, &nets, h, nil); err != nil {
		t.Fatal(err)
	}
	for _, rt := range []roundTrip{
		{"hgr", func() (*Hypergraph, error) { return netlist.ParseHGR(&hgr, "rt") }},
		{"netd", func() (*Hypergraph, error) { return netlist.ParseNetD(&netd, &are, "rt") }},
		{"patoh", func() (*Hypergraph, error) { return netlist.ParsePaToH(&patoh, "rt") }},
		{"bookshelf", func() (*Hypergraph, error) {
			d, err := netlist.ParseBookshelf(&nodes, &nets, "rt")
			if err != nil {
				return nil, err
			}
			return d.H, nil
		}},
	} {
		back, err := rt.run()
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		if back.NumVertices() != h.NumVertices() || back.NumEdges() != h.NumEdges() ||
			back.NumPins() != h.NumPins() || back.TotalVertexWeight() != h.TotalVertexWeight() {
			t.Fatalf("%s round trip broke structure", rt.name)
		}
	}

	// 3. Partition with every engine; all must be legal and consistent.
	bal := NewBalance(h.TotalVertexWeight(), 0.05)
	cuts := map[string]int64{}
	for _, eng := range []struct {
		name string
		kind EngineKind
	}{{"ml", EngineML}, {"flat", EngineFlatFM}, {"clip", EngineFlatCLIP}} {
		p, res, err := Bisect(h, BisectOptions{Tolerance: 0.05, Starts: 2, Engine: eng.kind, Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !p.Legal(bal) || p.Cut() != p.CutFromScratch() || res.Cut != p.Cut() {
			t.Fatalf("%s: inconsistent result", eng.name)
		}
		cuts[eng.name] = res.Cut
		// The 2-way cut must equal the objective package's view.
		parts := make(Assignment, h.NumVertices())
		for v := 0; v < h.NumVertices(); v++ {
			parts[v] = int32(p.Side(int32(v)))
		}
		if CutSize(h, parts) != res.Cut {
			t.Fatalf("%s: objective.CutSize disagrees", eng.name)
		}
	}
	// Spectral too.
	if _, sres, err := SpectralBisect(h, bal, SpectralOptions{Seed: 18}); err != nil {
		t.Fatal(err)
	} else if sres.Cut <= 0 {
		t.Fatal("spectral returned nonpositive cut")
	}

	// 4. K-way + direct refinement + objectives.
	res, err := PartitionKWay(h, 4, KWayConfig{Tolerance: 0.1, DirectRefine: true}, NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Parts.Validate(4); err != nil {
		t.Fatal(err)
	}
	if SumOfExternalDegrees(h, res.Parts) != ConnectivityMinusOne(h, res.Parts)+CutSize(h, res.Parts) {
		t.Fatal("SOED identity broken end-to-end")
	}
	ref, err := kwayfm.Refine(h, res.Parts, 4, kwayfm.Config{Tolerance: 0.15}, NewRNG(20))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Final > ref.Initial {
		t.Fatal("k-way refinement worsened")
	}

	// 5. Place (both modes) and export .pl.
	for _, quad := range []bool{false, true} {
		pl, err := Place(h, PlacerConfig{Seed: 21, Quadrisection: quad})
		if err != nil {
			t.Fatal(err)
		}
		if pl.HPWL(h) <= 0 {
			t.Fatal("zero HPWL")
		}
		var plBuf bytes.Buffer
		if err := netlist.WriteBookshelfPl(&plBuf, pl.X, pl.Y, 1000); err != nil {
			t.Fatal(err)
		}
		if plBuf.Len() == 0 {
			t.Fatal("empty .pl")
		}
	}

	// 6. Instance realism diagnostic runs end to end.
	if _, err := rent.Analyze(h, rent.Options{}); err != nil {
		t.Fatalf("rent: %v", err)
	}
}
