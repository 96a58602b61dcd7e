// Command e2e is the repository's end-to-end benchmark. It times whole
// bisections — the eval harness around the multilevel partitioner, exactly
// as `hgpart -starts N -workers 1` runs them — and whole requests served by
// hgserved, checks every result, and prints one JSON line of metrics as the
// last line of its standard output.
//
// Usage, from the repository root (bench/run.sh builds the program with its
// Go caches kept under .bench_build/):
//
//	bash bench/run.sh --workload bisect-ibm --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1     # every workload, each in a child process
//
// With --trace 1 the run records spans around the calls it makes into each
// layer, writes bench/out/<workload>.trace.json and
// bench/out/<workload>.layers.json, and prints the per-layer metrics instead
// of the end-to-end ones. bench/README.md describes the workloads and every
// metric.
//
// Exit status: 0 when every operation passed its check, 1 when one failed or
// the run could not be set up, 2 on a usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
	"hgpart/internal/partition"
)

// metricDef names a reported metric and its unit. The lists below must
// match BENCHMARK.json (the smoke test checks it).
type metricDef struct{ name, unit string }

// endToEnd metrics are printed by untraced runs, on every workload; an
// operation is one bisection on bisect-* and one request on serve-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cut_mean", "cut"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics are printed by traced runs; a layer the workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"gen.generate_ms", "ms"},
	{"netlist.parse_ms_p50", "ms"},
	{"eval.run_ms_p50", "ms"},
	{"eval.harness_self_ms_p50", "ms"},
	{"eval.verify_ms_per_start", "ms"},
	{"eval.start_ok_ratio", "ratio"},
	{"multilevel.start_ms_p50", "ms"},
	{"multilevel.start_ms_p90", "ms"},
	{"multilevel.vcycle_ms_p50", "ms"},
	{"multilevel.ns_per_work", "ns"},
	{"multilevel.allocs_per_start", "count"},
	{"multilevel.alloc_mb_per_start", "MB"},
	{"multilevel.levels", "count"},
	{"multilevel.coarsest_vertices", "count"},
	{"multilevel.moves_per_start", "count"},
	{"multilevel.work_per_start", "count"},
	{"multilevel.vcycle_gain_ratio", "ratio"},
	{"kwayfm.parrefine_ms_p50", "ms"},
	{"kwayfm.parrefine_rounds", "count"},
	{"kwayfm.parrefine_moves", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.miss_p90_ms", "ms"},
	{"service.decode_ms_p50", "ms"},
	{"service.cache_get_us_p50", "us"},
	{"service.frontend_self_ms_p50", "ms"},
	{"service.dispatch_self_ms_p50", "ms"},
	{"service.queue_depth_mean", "count"},
	{"service.dispatches_per_miss", "ratio"},
	{"service.ns_per_work_unit_p50", "ns"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.failovers", "count"},
	{"service.local_fallbacks", "count"},
	{"service.integrity_failures", "count"},
	{"bench.alloc_mb_per_op", "MB"},
	{"bench.residual_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.send_late_ms_p99", "ms"},
}

// workloads in the order a full run executes them.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"bisect-ibm", bisectIBM.run},
	{"bisect-mcnc", bisectMCNC.run},
	{"serve-hit", serveHit},
	{"serve-mixed", serveMixed},
}

const (
	// tolerance is the balance tolerance of every bisection and request
	// (the CLI's and the service's default).
	tolerance = 0.02
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minOps is the fewest operations a run measures, however short.
	minOps = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	root     string // repository root: the directory of the hgpart go.mod
	work     string // built binaries and daemon state
	out      string // trace files
}

// bench is the state of one workload run.
type bench struct {
	options
	log       io.Writer
	rec       *recorder // nil unless tracing
	ml        mlStats   // filled by traced bisections
	metrics   map[string]float64
	attempted int
	failed    int
}

// fail counts a failed operation and reports the first few.
func (b *bench) fail(op int, err error) {
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(b.log, "e2e: %s op %d failed: %v\n", b.workload, op, err)
	}
}

func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
}

// timeSetup runs setup setupReps times and reports the median as setup_s;
// teardown, when set, runs between repetitions outside the timing, so only
// the last repetition's state survives.
func (b *bench) timeSetup(setup func() error, teardown func()) error {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	b.metrics["setup_s"] = quantile(ts, 0.5)
	return nil
}

// instance is one generated netlist as the benchmark feeds it to the
// program: its hMETIS text and the hypergraph parsed back from that text.
type instance struct {
	hgr string
	h   *hypergraph.Hypergraph
	bal partition.Balance
}

// makeInstance generates spec with the given instance seed (a tenth of the
// size in a quick run), writes it as hMETIS text and parses it back.
func (b *bench) makeInstance(spec gen.Spec, seed uint64) (*instance, error) {
	spec.Seed = seed
	if b.quick {
		spec = gen.Scaled(spec, 0.1)
	}
	id := b.rec.begin("gen.Generate", -1, -1)
	g, err := gen.Generate(spec)
	b.rec.end(id)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := netlist.WriteHGR(&sb, g); err != nil {
		return nil, err
	}
	text := sb.String()
	id = b.rec.begin("netlist.ParseHGR", -1, -1)
	h, err := netlist.ParseHGR(strings.NewReader(text), spec.Name)
	b.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &instance{hgr: text, h: h, bal: partition.NewBalance(h.TotalVertexWeight(), tolerance)}, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the run's output: every end-to-end metric (which must
// all have been measured) or, traced, every per-layer one.
func (b *bench) result() (*result, error) {
	res := &result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && !b.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	known := 0
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := b.metrics[d.name]; ok {
			known++
		}
	}
	if known != len(b.metrics) {
		return nil, errors.New("a workload set a metric missing from the catalog")
	}
	return res, nil
}

// heapAlloc reads the process's cumulative heap allocation (bytes, objects).
func heapAlloc() (uint64, uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// peakRSSMB reads VmHWM, the peak resident set size, of process pid ("self"
// for this one).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts process pid's VmHWM from its current resident set,
// so peak_rss_mb measures the measured loop, not one-off set-up garbage.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// findRoot walks up from the working directory to the hgpart module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module hgpart\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the hgpart repository (no go.mod with module hgpart above the working directory)")
		}
		dir = parent
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run: bisect-ibm, bisect-mcnc, serve-hit or serve-mixed (empty: all, each in a child process)")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every instance and partition seed derives from")
	fs.Float64Var(&opt.seconds, "seconds", 25, "how long a run measures")
	trace := fs.Int("trace", 0, "1: record spans and print per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&opt.quick, "quick", false, "tenth-size instances (smoke test)")
	fs.StringVar(&opt.work, "work", "", "directory for built binaries and daemon state (default <root>/.bench_build)")
	fs.StringVar(&opt.out, "out", "", "directory for trace files (default <root>/bench/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || opt.seconds <= 0 {
		fmt.Fprintln(stderr, "e2e: usage: e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]")
		return 2
	}
	opt.trace = *trace == 1
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	opt.root = root
	if opt.work == "" {
		opt.work = filepath.Join(root, ".bench_build")
	}
	if opt.out == "" {
		opt.out = filepath.Join(root, "bench", "out")
	}
	if opt.workload == "" {
		return runAll(args, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == opt.workload {
			return runOne(opt, w.run, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "e2e: unknown workload %q\n", opt.workload)
	return 2
}

func runOne(opt options, fn func(*bench) error, stdout, stderr io.Writer) int {
	b := &bench{options: opt, log: stderr, metrics: map[string]float64{}}
	if opt.trace {
		b.rec = newRecorder()
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", opt.workload, err)
		return 1
	}
	res, err := b.result()
	if err == nil && b.rec != nil {
		err = writeTrace(opt.out, opt.workload, opt.seed, b.rec.snapshot(), b.metrics)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", opt.workload, err)
		return 1
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "%-12s %-30s %14.4f %s\n", opt.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stderr, "%-12s attempted=%d failed=%d correct=%v\n", opt.workload, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, with the same
// flags, and prints each child's result line after the workload's name.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Fprintf(stdout, "%s %s\n", w.name, lines[len(lines)-1])
		if err != nil {
			fmt.Fprintf(stderr, "e2e: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
