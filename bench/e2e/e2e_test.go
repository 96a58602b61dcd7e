package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hgpart/internal/gen"
	"hgpart/internal/partition"
	"hgpart/internal/rng"
)

type listedMetric struct{ Name, Unit string }

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []listedMetric `json:"end_to_end"`
	PerLayer  []listedMetric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, c := range []struct {
		kind   string
		defs   []metricDef
		listed []listedMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", c.kind, len(c.defs), len(c.listed))
		}
		for i := range c.listed {
			if i < len(c.defs) && (c.defs[i].name != c.listed[i].Name || c.defs[i].unit != c.listed[i].Unit) {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.kind, i, c.defs[i], c.listed[i])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestQuickRuns runs every workload briefly on tenth-size instances,
// untraced and traced. Each run must pass all of its own checks (which
// include traced cuts equal to untraced ones, and served miss cuts equal to
// the in-process replay) and print exactly the metrics BENCHMARK.json
// lists. Nothing about timing is asserted beyond the bisection accounting.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hgserved and runs every workload")
	}
	spec := loadBenchmarkJSON(t)
	work, out := t.TempDir(), t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--quick",
					"--trace", trace, "--work", work, "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last stdout line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
					t.Fatalf("result %+v\n%s", res, stderr.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want the %d BENCHMARK.json lists", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if trace == "0" {
					return
				}
				for _, f := range []string{".trace.json", ".layers.json"} {
					if _, err := os.Stat(filepath.Join(out, w.name+f)); err != nil {
						t.Error(err)
					}
				}
				// Every bisection step the benchmark calls is a span, so
				// nearly all of a traced bisection's wall time is attributed.
				if r := res.Metrics["bench.residual_pct"].Value; strings.HasPrefix(w.name, "bisect") && (r < 0 || r > 2) {
					t.Errorf("bench.residual_pct = %g, want within [0, 2]", r)
				}
			})
		}
	}
}

func TestCheckersCountFailures(t *testing.T) {
	b := &bench{options: options{workload: "test", trace: true}, log: io.Discard, metrics: map[string]float64{}}
	inst, err := b.makeInstance(mustMCNC("prim1"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(inst, solveCfg{starts: 2, workers: 1}, 5, nil); err != nil {
		t.Fatalf("a correct bisection failed its check: %v", err)
	}

	p := partition.New(inst.h)
	p.RandomBalanced(rng.New(1), inst.bal)
	if err := checkBisection(p, inst.bal, p.Cut()); err != nil {
		t.Fatalf("a correct partition failed its check: %v", err)
	}
	if err := checkBisection(p, inst.bal, p.Cut()+1); err == nil {
		t.Error("a wrong reported cut passed")
	} else {
		b.fail(0, err)
	}

	total := int64(1000)
	bal := partition.NewBalance(total, tolerance)
	good, err := json.Marshal(servedReport{InstanceHash: "h1", Seed: 9, Cut: 40, Side0: 500, Side1: 500})
	if err != nil {
		t.Fatal(err)
	}
	hit := expectation{disposition: "hit", seed: 9, hash: "h1", first: good, total: total, bal: bal}
	if _, err := checkServed(200, "hit", good, hit); err != nil {
		t.Fatalf("a correct hit failed its check: %v", err)
	}
	altered := bytes.Replace(good, []byte(`"cut":40`), []byte(`"cut":41`), 1)
	unbalanced, _ := json.Marshal(servedReport{InstanceHash: "h1", Seed: 9, Side0: 400, Side1: 600})
	miss := hit
	miss.disposition, miss.first = "miss", nil
	for _, c := range []struct {
		name        string
		code        int
		disposition string
		body        []byte
		want        expectation
	}{
		{"5xx", 500, "", []byte(`{"error":"boom"}`), hit},
		{"altered hit bytes", 200, "hit", altered, hit},
		{"miss served as a hit", 200, "miss", good, hit},
		{"other instance hash", 200, "miss", bytes.Replace(good, []byte(`"h1"`), []byte(`"h2"`), 1), miss},
		{"sides outside the balance window", 200, "miss", unbalanced, miss},
	} {
		if _, err := checkServed(c.code, c.disposition, c.body, c.want); err == nil {
			t.Errorf("%s passed", c.name)
		} else {
			b.fail(1, err)
		}
	}

	b.attempted = 2
	res, err := b.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 6 {
		t.Errorf("result correct=%v failed=%d, want correct=false failed=6", res.Correct, res.Failed)
	}
}

// TestCLIParity checks that the benchmark's bisection is the one the CLI
// runs: `hgpart -starts 4 -workers 1` on the same instance and seed reports
// the same cut.
func TestCLIParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hgpart")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hgpart")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hgpart")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hgpart: %v\n%s", err, out)
	}
	b := &bench{options: options{quick: true}, log: io.Discard, metrics: map[string]float64{}}
	inst, err := b.makeInstance(gen.MustIBMProfile(1), 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ibm01.hgr")
	if err := os.WriteFile(path, []byte(inst.hgr), 0o644); err != nil {
		t.Fatal(err)
	}
	const seed = 5
	want, err := solve(inst, solveCfg{starts: 4, workers: 1}, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-in", path, "-starts", "4", "-workers", "1", "-seed", fmt.Sprint(seed), "-q").Output()
	if err != nil {
		t.Fatalf("hgpart: %v", err)
	}
	var got int64 = -1
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "cut=") {
			fmt.Sscanf(line, "cut=%d", &got)
		}
	}
	if got != want {
		t.Fatalf("hgpart cut %d, benchmark cut %d\n%s", got, want, out)
	}
}

func TestSelfTimes(t *testing.T) {
	// A harness span with two overlapping worker spans (one with a child)
	// and a second top-level span of the same operation.
	spans := []span{
		{Name: "run", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "start", Op: 0, Parent: 0, Start: 10, End: 50},
		{Name: "start", Op: 0, Parent: 0, Start: 30, End: 70},
		{Name: "verify", Op: 0, Parent: 1, Start: 20, End: 25},
		{Name: "polish", Op: 0, Parent: -1, Start: 100, End: 120},
		{Name: "setup", Op: -1, Parent: -1, Start: 200, End: 300},
	}
	want := []int64{40, 35, 40, 5, 20, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if top := topLevelNs(spans); len(top) != 1 || top[0] != 120 {
		t.Errorf("topLevelNs = %v, want map[0:120]", top)
	}

	// Without parallel children, the self times of an operation's spans
	// sum to its top-level time: nothing is counted twice or lost.
	serial := []span{spans[0], spans[1], spans[3], spans[4]}
	var total int64
	for _, s := range selfTimes(serial) {
		total += s
	}
	if total != 120 {
		t.Errorf("serial self times sum to %d, want 120", total)
	}
}
