package main

// The -portfolio-gate mode is the quality gate for the adaptive portfolio
// scheduler (DESIGN.md §15): over a deterministic suite of scaled generator
// profiles, racing the full arm portfolio must never lose to the fixed
// default beyond a bounded racing overhead. The baseline is a single-arm
// "portfolio" of the default arm run through the identical schedule
// machinery (same race/commit/polish seeds), so the comparison isolates
// exactly one variable: whether racing the extra arms pays for itself.
//
// Pass criteria (METHODOLOGY.md "Speed-dependent rankings"):
//   - final cut <= fixed default on at least half the suite, and
//   - total work <= maxOverhead x the fixed default's on every case.

import (
	"context"
	"fmt"
	"io"

	"hgpart/internal/gen"
	"hgpart/internal/partition"
	"hgpart/internal/portfolio"
)

// gateStarts/gateSeed/gateTolerance pin the gate's schedule; the suite is a
// pure function of them, so reruns are byte-comparable.
const (
	gateStarts    = 6
	gateSeed      = 17
	gateTolerance = 0.10
	// maxOverhead bounds portfolio work relative to the fixed default.
	// Racing five extra arms for one start each costs well under 1x the
	// default's own six ML starts on every profile class in the suite
	// (flat arms are far cheaper per start than multilevel); 2.5x leaves
	// headroom without letting the race eat the commit budget.
	maxOverhead = 2.5
)

// gateSuite returns the scaled profiles the gate races: three IBM-like
// instances (macros, global nets, skewed areas) and three MCNC-like ones
// (small, unit-area) — both instance classes the paper says a reporting
// methodology must separate.
func gateSuite() ([]gen.Spec, error) {
	specs := make([]gen.Spec, 0, 6)
	for _, c := range []struct {
		ibm   int
		scale float64
	}{{1, 0.05}, {3, 0.03}, {7, 0.015}} {
		s, err := gen.IBMProfile(c.ibm)
		if err != nil {
			return nil, err
		}
		specs = append(specs, gen.Instance(s, c.scale, 0))
	}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"fract", 1}, {"prim1", 1}, {"struct", 0.5}} {
		s, err := gen.MCNCProfile(c.name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, gen.Instance(s, c.scale, 0))
	}
	return specs, nil
}

// runPortfolioGate races the suite and returns a process exit code: 0 when
// the gate holds, 1 when it fails, 2 on setup errors.
func runPortfolioGate(w io.Writer) int {
	specs, err := gateSuite()
	if err != nil {
		fmt.Fprintf(w, "hgbench: portfolio gate: %v\n", err)
		return 2
	}
	arms := portfolio.DefaultArms()
	full := &portfolio.Scheduler{Arms: arms}
	fixed := &portfolio.Scheduler{Arms: arms[:1]}
	ctx := context.Background()

	fmt.Fprintf(w, "portfolio gate: starts=%d seed=%d tol=%g arms=%d vs fixed %q\n",
		gateStarts, gateSeed, gateTolerance, len(arms), arms[0].Name)
	fmt.Fprintf(w, "%-16s %10s %10s %-14s %8s\n",
		"case", "fixed cut", "port cut", "winner arm", "overhead")

	wins := 0
	pass := true
	for _, spec := range specs {
		h, err := gen.Generate(spec)
		if err != nil {
			fmt.Fprintf(w, "hgbench: portfolio gate: %s: %v\n", spec.Name, err)
			return 2
		}
		bal := partition.NewBalance(h.TotalVertexWeight(), gateTolerance)
		base, err := fixed.Run(ctx, h, bal, gateSeed, gateStarts, 0)
		if err != nil {
			fmt.Fprintf(w, "hgbench: portfolio gate: %s: fixed default: %v\n", spec.Name, err)
			return 2
		}
		port, err := full.Run(ctx, h, bal, gateSeed, gateStarts, 0)
		if err != nil {
			fmt.Fprintf(w, "hgbench: portfolio gate: %s: portfolio: %v\n", spec.Name, err)
			return 2
		}
		overhead := float64(port.TotalWork) / float64(base.TotalWork)
		winner := port.Race.Arms[port.Race.Winner].Name
		mark := ""
		if port.Final.Cut <= base.Final.Cut {
			wins++
		} else {
			mark = "  (lost)"
		}
		if overhead > maxOverhead {
			pass = false
			mark += fmt.Sprintf("  OVERHEAD > %gx", maxOverhead)
		}
		fmt.Fprintf(w, "%-16s %10d %10d %-14s %7.2fx%s\n",
			spec.Name, base.Final.Cut, port.Final.Cut, winner, overhead, mark)
	}
	need := (len(specs) + 1) / 2
	if wins < need {
		pass = false
	}
	fmt.Fprintf(w, "portfolio gate: %d/%d cases at or below the fixed default (need >= %d), overhead cap %gx\n",
		wins, len(specs), need, maxOverhead)
	if !pass {
		fmt.Fprintln(w, "portfolio gate: FAIL")
		return 1
	}
	fmt.Fprintln(w, "portfolio gate: ok")
	return 0
}
