package main

// Portfolio chaos scenario: a mode=portfolio report is a pure function of
// the request, so it must be byte-identical across a repeat (cache hit), a
// daemon restart on the same checkpoint dir (result cache cold, so the whole
// race+commit recomputes), a daemon with no checkpoint dir at all, and
// 1/2/3-worker cluster topologies.

import (
	"context"
	"fmt"
)

// portfolioScenario executes the portfolio determinism proof. It computes
// its own baseline: the shared flat-engine baseline does not exercise the
// racing path.
func portfolioScenario(ctx context.Context, e *env) error {
	e.req = fmt.Sprintf(`{"benchmark":"ibm01","scale":%g,"mode":"portfolio","starts":%d,"seed":%d}`,
		e.scale, e.starts, e.seed)

	// Phase 1: cold daemon with a checkpoint dir. The first answer is the
	// scenario baseline; the repeat must be a byte-identical cache hit.
	cpDir := e.path("checkpoints")
	d1, err := startDaemon(ctx, e, "cold", "-checkpoint-dir", cpDir)
	if err != nil {
		return fmt.Errorf("cold daemon: %w", err)
	}
	defer d1.stop()
	if e.baseline, _, err = submitSync(ctx, d1.addr, e.req, e.seed); err != nil {
		return envError{fmt.Errorf("cold request: %w", err)}
	}
	if _, err := e.expect(ctx, d1.addr, "repeat report", "hit"); err != nil {
		return err
	}
	d1.stop() // before the restart opens the same checkpoint dir
	e.logf("baseline report: %d bytes, repeat was a byte-identical cache hit", len(e.baseline))

	// Phase 2: fresh daemon on the same checkpoint dir. The result cache is
	// cold, so the whole race+commit recomputes and must not move a byte:
	// a restart that changed selection would poison every cache keyed on
	// these bytes.
	d2, err := startDaemon(ctx, e, "restart", "-checkpoint-dir", cpDir)
	if err != nil {
		return fmt.Errorf("restarted daemon: %w", err)
	}
	defer d2.stop()
	if _, err := e.expect(ctx, d2.addr, "restarted report", "miss"); err != nil {
		return err
	}
	d2.stop()
	e.logf("restart recomputed byte-identical bytes")

	// Phase 3: a daemon with no checkpoint dir at all.
	d3, err := startDaemon(ctx, e, "nocheckpoint")
	if err != nil {
		return fmt.Errorf("no-checkpoint daemon: %w", err)
	}
	defer d3.stop()
	if _, err := e.expect(ctx, d3.addr, "no-checkpoint report", ""); err != nil {
		return err
	}
	d3.stop()
	e.logf("no-checkpoint daemon byte-identical")

	// Phase 4: 1-, 2- and 3-worker clusters. Wherever the job lands, the
	// bytes must match the single-node baseline.
	return acrossTopologies(ctx, e, false)
}
