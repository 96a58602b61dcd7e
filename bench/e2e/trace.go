package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory; they are written out
// when the run ends. Spans wrap only calls the benchmark itself makes into
// a layer's public functions: spans inside the program are not recorded.
// A nil *recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Op identifies the operation (bisection or request
// index) the call belongs to, -1 for set-up; Parent is the index of the
// enclosing span, -1 for a top-level span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations in ms of every span with this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children that ran in parallel (harness workers) are merged
// first, so overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
		}
		self[i] = s.End - s.Start - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, lo, hi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			lo, hi, open = iv[0], iv[1], true
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// selfByName returns the self times in ms of every span with this name.
func selfByName(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// topLevelNs sums, per operation, the durations of its top-level spans:
// with children nested inside their parents this equals the sum of the
// self times of all the operation's spans.
func topLevelNs(spans []span) map[int]int64 {
	out := map[int]int64{}
	for _, s := range spans {
		if s.Parent < 0 && s.Op >= 0 {
			out[s.Op] += s.End - s.Start
		}
	}
	return out
}

// layerRow summarises one span name for the layers file.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Total   float64 `json:"total_ms"`
	Self    float64 `json:"self_ms"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	SelfP50 float64 `json:"self_p50_ms"`
}

// writeTrace writes <out>/<workload>.trace.json (every span) and
// <out>/<workload>.layers.json (per-name totals and self times, plus the
// run's per-layer metrics).
func writeTrace(out, workload string, seed uint64, spans []span, metrics map[string]float64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	self := selfTimes(spans)
	var names []string
	seen := map[string]bool{}
	for _, s := range spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	rows := make([]layerRow, 0, len(names))
	for _, n := range names {
		d := durations(spans, n)
		sf := selfByName(spans, self, n)
		rows = append(rows, layerRow{Name: n, Count: len(d), Total: sum(d), Self: sum(sf),
			P50: quantile(d, 0.5), P90: quantile(d, 0.9), SelfP50: quantile(sf, 0.5)})
	}
	files := []struct {
		name string
		doc  any
	}{
		{workload + ".trace.json", map[string]any{"workload": workload, "seed": seed, "spans": spans}},
		{workload + ".layers.json", map[string]any{"workload": workload, "seed": seed, "layers": rows, "metrics": metrics}},
	}
	for _, f := range files {
		b, err := json.MarshalIndent(f.doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, f.name), append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
