// Package trace records FM execution traces — per-pass start and end cuts,
// move counts and rollback depths. It implements core.Tracer.
//
// The paper's methodology sections lean on exactly this kind of evidence:
// the corking diagnosis came from "traces of CLIP executions", and Gent et
// al.'s "Do collect all data possible" is quoted approvingly. A Recorder
// keeps one record per pass (nothing per move) and can be dumped to CSV for
// offline analysis, or summarized in-process.
package trace

import (
	"fmt"
	"io"
)

// PassRecord summarizes one FM pass.
type PassRecord struct {
	Pass       int
	StartCut   int64
	EndCut     int64
	Moves      int64
	RolledBack int
}

// Recorder implements core.Tracer.
type Recorder struct {
	passes  []PassRecord
	current *PassRecord
}

// PassStart implements core.Tracer.
func (r *Recorder) PassStart(pass int, cut int64) {
	r.passes = append(r.passes, PassRecord{Pass: pass, StartCut: cut})
	r.current = &r.passes[len(r.passes)-1]
}

// MoveMade implements core.Tracer.
func (r *Recorder) MoveMade(pass int, moveIdx int64, v int32, cut int64) {
	if r.current == nil {
		return
	}
	r.current.Moves = moveIdx
}

// PassEnd implements core.Tracer.
func (r *Recorder) PassEnd(pass int, bestCut int64, moves int64, rolledBack int) {
	if r.current == nil {
		return
	}
	r.current.EndCut = bestCut
	r.current.Moves = moves
	r.current.RolledBack = rolledBack
	r.current = nil
}

// Passes returns the recorded pass summaries.
func (r *Recorder) Passes() []PassRecord { return r.passes }

// WriteSummaryCSV emits one row per pass:
// pass,start_cut,end_cut,moves,rolled_back.
func (r *Recorder) WriteSummaryCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "pass,start_cut,end_cut,moves,rolled_back"); err != nil {
		return err
	}
	for _, p := range r.passes {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d\n",
			p.Pass, p.StartCut, p.EndCut, p.Moves, p.RolledBack); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the whole run.
type Summary struct {
	Passes          int
	TotalMoves      int64
	TotalRolledBack int64
	FirstCut        int64
	FinalCut        int64
	// ShortestPassMoves exposes corked behaviour: a corked pass dies after
	// very few moves.
	ShortestPassMoves int64
}

// Summarize derives a Summary from the recorded passes.
func (r *Recorder) Summarize() Summary {
	s := Summary{Passes: len(r.passes)}
	if s.Passes == 0 {
		return s
	}
	s.FirstCut = r.passes[0].StartCut
	s.FinalCut = r.passes[len(r.passes)-1].EndCut
	s.ShortestPassMoves = r.passes[0].Moves
	for _, p := range r.passes {
		s.TotalMoves += p.Moves
		s.TotalRolledBack += int64(p.RolledBack)
		if p.Moves < s.ShortestPassMoves {
			s.ShortestPassMoves = p.Moves
		}
	}
	return s
}
