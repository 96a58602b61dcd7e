package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hgpart/internal/gen"
	"hgpart/internal/hypergraph"
	"hgpart/internal/netlist"
	"hgpart/internal/portfolio"
)

// PartitionRequest is the POST /v1/partition body. Exactly one instance
// source must be set: a named synthetic benchmark ("ibm01".."ibm18" or
// "mcnc:<name>"), an inline hMETIS .hgr text, or an inline ISPD98 .netD
// text (with optional .are).
type PartitionRequest struct {
	// Benchmark names a bundled synthetic instance: "ibmNN" or "mcnc:<name>".
	Benchmark string `json:"benchmark,omitempty"`
	// Scale downsizes a benchmark spec, in (0, 1]; default 1.
	Scale float64 `json:"scale,omitempty"`
	// InstanceSeed overrides the benchmark spec's instance-generation seed
	// (0 keeps the profile default).
	InstanceSeed uint64 `json:"instance_seed,omitempty"`
	// HGR is an inline hMETIS-format hypergraph.
	HGR string `json:"hgr,omitempty"`
	// NetD is an inline ISPD98 .netD/.net netlist; Are optionally supplies
	// areas.
	NetD string `json:"netd,omitempty"`
	Are  string `json:"are,omitempty"`
	// Label names an inline instance in reports (default: derived from the
	// instance hash).
	Label string `json:"label,omitempty"`

	// Engine is "ml" (default), "flat" or "clip".
	Engine string `json:"engine,omitempty"`
	// Mode selects the scheduling strategy: "" (fixed engine, the default)
	// or "portfolio" — race the curated arm portfolio for the first slice of
	// the budget, then commit the remainder to the winner (DESIGN.md §15).
	// With mode=portfolio the engine/vcycles fields are ignored, and keyed
	// as their defaults: the winning arm brings its own configuration.
	Mode string `json:"mode,omitempty"`
	// Starts is the number of independent starts (default 4).
	Starts int `json:"starts,omitempty"`
	// VCycles applied to the best solution with the ml engine:
	// defaultVCycles when the field is absent (admitRequest presets it), and
	// an explicit 0 means none. Flat, clip and mode=portfolio ignore it and
	// echo and key defaultVCycles. Never omitted, so a coordinator's
	// forwarded body keeps its 0.
	VCycles int `json:"vcycles"`
	// Tolerance is the balance tolerance (default 0.02).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Seed drives all partitioning randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Workers caps concurrent starts within this job (bounded by the
	// server's per-job limit). Results are identical at any worker count.
	Workers int `json:"workers,omitempty"`
	// RefineThreads > 0 applies a deterministic synchronous-round parallel
	// FM polish (kwayfm.ParRefine) to the best partition after any V-cycle
	// polish, evaluated on that many threads (bounded by the server's
	// MaxRefineThreads). Results are byte-identical at any positive value —
	// only whether the polish ran changes the report, never the count.
	RefineThreads int `json:"refine_threads,omitempty"`
	// WallBudgetMS bounds the job's wall-clock time; 0 means unbounded.
	// A budget-truncated run is reported incomplete and never cached.
	WallBudgetMS int64 `json:"wall_budget_ms,omitempty"`
	// WorkBudget bounds the job's deterministic work units; 0 = unbounded.
	WorkBudget int64 `json:"work_budget,omitempty"`
	// Priority orders the queue: higher runs sooner; ties run in submission
	// order.
	Priority int `json:"priority,omitempty"`
	// Async returns a job id immediately instead of waiting for the result.
	Async bool `json:"async,omitempty"`
}

// RequestError is a client-side validation failure (HTTP 400).
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// defaultVCycles is the V-cycle count of a request that names none.
const defaultVCycles = 1

// normalize applies defaults in place (VCycles is preset before decoding,
// because its zero value is a valid request).
func (r *PartitionRequest) normalize() {
	if r.Engine == "" {
		r.Engine = "ml"
	}
	if r.Starts == 0 {
		r.Starts = 4
	}
	if r.Tolerance == 0 {
		r.Tolerance = 0.02
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = 1
	}
}

// canonicalize sets every field a partition job does not read to its
// default, so the cache key, the report echo and a coordinator's forwarded
// body all name the configuration that ran: mode=portfolio reads neither
// engine nor vcycles (the winning arm brings its own), and flat and clip
// never V-cycle. It runs after validation, so an out-of-range ignored field
// is still refused, and on /v1/partition only: /v1/trace reads engine under
// any mode.
func (r *PartitionRequest) canonicalize() {
	if r.Mode == "portfolio" {
		r.Engine = "ml"
	}
	if r.Mode == "portfolio" || r.Engine != "ml" {
		r.VCycles = defaultVCycles
	}
}

// validate mirrors the CLI boundary checks: user input is validated here,
// deeper layers treat bad values as programming errors.
func (r *PartitionRequest) validate() error {
	sources := 0
	if r.Benchmark != "" {
		sources++
	}
	if r.HGR != "" {
		sources++
	}
	if r.NetD != "" {
		sources++
	}
	if sources != 1 {
		return reqErrf("exactly one of benchmark, hgr, netd must be set (got %d)", sources)
	}
	if r.Are != "" && r.NetD == "" {
		return reqErrf("are requires netd")
	}
	if r.Scale <= 0 || r.Scale > 1 {
		return reqErrf("scale %g out of range (0,1]", r.Scale)
	}
	if r.Tolerance <= 0 || r.Tolerance >= 1 {
		return reqErrf("tolerance %g out of range (0,1)", r.Tolerance)
	}
	if r.Starts < 1 || r.Starts > 100000 {
		return reqErrf("starts %d out of range [1,100000]", r.Starts)
	}
	if r.VCycles < 0 || r.VCycles > 64 {
		return reqErrf("vcycles %d out of range [0,64]", r.VCycles)
	}
	switch r.Engine {
	case "ml", "flat", "clip":
	default:
		return reqErrf("engine %q must be ml, flat or clip", r.Engine)
	}
	switch r.Mode {
	case "", "portfolio":
	default:
		return reqErrf("mode %q must be empty or portfolio", r.Mode)
	}
	if r.Mode == "portfolio" && r.RefineThreads > 0 {
		return reqErrf("refine_threads is not supported with mode=portfolio")
	}
	if r.Workers < 0 {
		return reqErrf("workers %d negative", r.Workers)
	}
	if r.RefineThreads < 0 || r.RefineThreads > 64 {
		return reqErrf("refine_threads %d out of range [0,64]", r.RefineThreads)
	}
	if r.WallBudgetMS < 0 || r.WorkBudget < 0 {
		return reqErrf("budgets must be non-negative")
	}
	return nil
}

// resolveInstance turns the request's instance source into a hypergraph and
// a human-readable instance name, through the resolvers every command uses:
// gen.Benchmark for a named benchmark, netlist.Parse for inline text. Parse
// failures come back as typed *netlist.ParseError values (HTTP 400 at the
// handler).
func (r *PartitionRequest) resolveInstance() (*hypergraph.Hypergraph, string, error) {
	if r.Benchmark != "" {
		spec, name, err := gen.Benchmark(r.Benchmark, r.Scale, r.InstanceSeed)
		if err != nil {
			return nil, "", reqErrf("benchmark %q: %v", r.Benchmark, err)
		}
		h, err := gen.Generate(spec)
		if err != nil {
			return nil, "", reqErrf("benchmark %q: %v", r.Benchmark, err)
		}
		return h, name, nil
	}
	name := r.Label
	if name == "" {
		name = "inline"
	}
	text, format := r.HGR, "hgr"
	var are io.Reader
	if r.NetD != "" {
		text, format = r.NetD, "netd"
		if r.Are != "" {
			are = strings.NewReader(r.Are)
		}
	}
	h, err := netlist.Parse(format, strings.NewReader(text), are, name)
	if err != nil {
		return nil, "", err
	}
	return h, name, nil
}

// instanceHash content-addresses a hypergraph: the SHA-256 of its canonical
// hMETIS serialization, netlist.WriteCanonicalHGR (structure and weights
// only — no name, no comments). Two inline uploads that differ only in
// whitespace or comments — or a benchmark request and an upload of the
// identical instance — coalesce to the same hash and therefore the same
// cache entries.
func instanceHash(h *hypergraph.Hypergraph) string {
	hash := sha256.New()
	netlist.WriteCanonicalHGR(hash, h) // a hash.Hash never returns a write error
	return hex.EncodeToString(hash.Sum(nil))
}

// cacheKey derives the content-addressed result key: every field that can
// change the deterministic report participates; fields that cannot (worker
// count, priority, the wall budget, a fixed engine's work budget) are
// deliberately excluded. Budget-truncated runs are never cached, so a
// complete budgeted fixed-engine run may legitimately share its key with the
// unbudgeted one — they are byte-identical. r is canonical (canonicalize),
// so a field the job ignores is keyed at its default.
//
// RefineThreads follows the same rule split in two: whether the parallel
// polish runs changes the answer (so its presence is keyed), but the thread
// count does not — the synchronous-round refiner is byte-identical at every
// positive count — so refine_threads=1 and refine_threads=8 share an entry.
func cacheKey(instHash string, r *PartitionRequest) string {
	cfg := fmt.Sprintf("hgserved/v1|inst=%s|engine=%s|starts=%d|vcycles=%d|tol=%s|seed=%d",
		instHash, r.Engine, r.Starts, r.VCycles,
		strconv.FormatFloat(r.Tolerance, 'g', -1, 64), r.Seed)
	if r.RefineThreads > 0 {
		cfg += "|parfm=1"
	}
	if r.Mode == "portfolio" {
		// The portfolio schedule replaces the fixed engine entirely (its
		// ignored engine and vcycles arrive canonical). Its report is a
		// pure function of (instance, starts, tolerance, seed, work budget):
		// the race's per-arm share is work_budget/4, so even a complete
		// budgeted report carries different arm traces than the unbudgeted
		// one, and a non-zero work budget is keyed.
		cfg += "|mode=portfolio"
		if r.WorkBudget > 0 {
			cfg += fmt.Sprintf("|work=%d", r.WorkBudget)
		}
	}
	sum := sha256.Sum256([]byte(cfg))
	return hex.EncodeToString(sum[:])
}

// BSFEntry is one improvement of the best-so-far cut: after start Start
// (in deterministic start order), the best cut seen so far was Cut.
type BSFEntry struct {
	Start int   `json:"start"`
	Cut   int64 `json:"cut"`
}

// Report is the deterministic result document: for a given (instance,
// config, seed) it is byte-identical across runs, restarts, worker counts
// and checkpoint resumes — wall-clock quantities are deliberately absent
// (they ride in headers and the job-status endpoint instead). The cache
// stores the marshaled bytes verbatim, so a hit returns exactly what the
// miss computed.
type Report struct {
	Schema       string `json:"schema"`
	Instance     string `json:"instance"`
	InstanceHash string `json:"instance_hash"`
	Vertices     int    `json:"vertices"`
	Edges        int    `json:"edges"`
	Pins         int    `json:"pins"`

	Engine    string  `json:"engine"`
	Starts    int     `json:"starts"`
	VCycles   int     `json:"vcycles"`
	Tolerance float64 `json:"tolerance"`
	Seed      uint64  `json:"seed"`
	CacheKey  string  `json:"cache_key"`

	// Cut is the final best cut (after V-cycle polish with the ml engine);
	// MinCut/AvgCut summarize the raw multistart distribution per the
	// paper's min/avg reporting discipline.
	Cut       int64   `json:"cut"`
	MinCut    int64   `json:"min_cut"`
	AvgCut    float64 `json:"avg_cut"`
	BestStart int     `json:"best_start"`
	Side0     int64   `json:"side0"`
	Side1     int64   `json:"side1"`

	// RefineRounds/RefineMoves report the parallel FM polish when the
	// request set refine_threads > 0 (omitted when zero); both are
	// independent of the thread count.
	RefineRounds int   `json:"refine_rounds,omitempty"`
	RefineMoves  int64 `json:"refine_moves,omitempty"`

	Completed  int    `json:"completed"`
	Failed     int    `json:"failed"`
	Skipped    int    `json:"skipped"`
	Incomplete bool   `json:"incomplete,omitempty"`
	Reason     string `json:"reason,omitempty"`

	// Work is the deterministic work-unit total (multistart plus polish);
	// NormalizedSeconds converts it to the paper's machine-independent
	// seconds. Wall-clock time is intentionally not here.
	Work              int64   `json:"work"`
	NormalizedSeconds float64 `json:"normalized_seconds"`

	// BSF is the best-so-far trajectory over starts in deterministic start
	// order (not completion order).
	BSF []BSFEntry `json:"bsf"`

	// Portfolio is present only under mode=portfolio: the racing slice's
	// deterministic trace.
	Portfolio *PortfolioReport `json:"portfolio,omitempty"`
}

// PortfolioReport is the mode=portfolio race section of a Report: the
// instance's feature bucket, one trace per raced arm, the winner, and which
// phase (race or commit) produced the final answer. Every field is a pure
// function of (instance, seed, budget).
type PortfolioReport struct {
	Bucket   string               `json:"bucket"`
	Arms     []portfolio.ArmTrace `json:"arms"`
	Winner   string               `json:"winner"`
	RaceWork int64                `json:"race_work"`
	// Source is "race" when the race winner's polished best survived the
	// commit phase, "commit" when a commit start beat it.
	Source string `json:"source"`
}
