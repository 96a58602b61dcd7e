package main

// Portfolio chaos scenario: a mode=portfolio report is a pure function of
// the request, so it must be byte-identical across a repeat (cache hit), a
// daemon restart on the same checkpoint dir (result cache cold, so the whole
// race+commit recomputes), a daemon with no checkpoint dir at all, and
// 1/2/3-worker cluster topologies.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// runPortfolioScenario executes the portfolio determinism proof. It computes
// its own baseline (the shared flat-engine baseline does not exercise the
// racing path). Returns 0 pass, 1 assertion failure, 2 environment failure.
func runPortfolioScenario(ctx context.Context, opt options) int {
	const name = "portfolio"
	preq := fmt.Sprintf(`{"benchmark":"ibm01","scale":%g,"mode":"portfolio","starts":%d,"seed":%d}`,
		opt.scale, opt.starts, opt.seed)

	// Phase 1: cold daemon with a checkpoint dir. The first answer is the
	// scenario baseline; the repeat must be a byte-identical cache hit.
	cpDir := filepath.Join(opt.workdir, name, "checkpoints")
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
		return 2
	}
	d1, err := startDaemon(ctx, opt, name+"-cold", []string{"-checkpoint-dir", cpDir})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: cold daemon: %v\n", name, err)
		return 2
	}
	baseline, _, err := submitSync(ctx, d1.addr, preq, opt.seed)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: cold request: %v\n", name, err)
		d1.stop()
		return 2
	}
	repeat, sv, err := submitSync(ctx, d1.addr, preq, opt.seed)
	if err != nil || sv.cache != "hit" || !bytes.Equal(repeat, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: repeat not a byte-identical cache hit (disposition %q, err %v)\n",
			name, sv.cache, err)
		d1.stop()
		return 1
	}
	d1.stop()
	fmt.Fprintf(opt.out, "hgchaos: %s: baseline report: %d bytes, repeat was a byte-identical cache hit\n",
		name, len(baseline))

	// Phase 2: fresh daemon on the same checkpoint dir. The result cache is
	// cold, so the whole race+commit recomputes and must not move a byte:
	// a restart that changed selection would poison every cache keyed on
	// these bytes.
	d2, err := startDaemon(ctx, opt, name+"-restart", []string{"-checkpoint-dir", cpDir})
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: restarted daemon: %v\n", name, err)
		return 2
	}
	body, sv, err := submitSync(ctx, d2.addr, preq, opt.seed)
	d2.stop()
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: restarted request: %v\n", name, err)
		return 1
	}
	if sv.cache != "miss" {
		fmt.Fprintf(opt.out, "hgchaos: %s: restarted disposition %q, want miss (cold cache)\n", name, sv.cache)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: restarted report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: restart recomputed byte-identical bytes\n", name)

	// Phase 3: a daemon with no checkpoint dir at all.
	d3, err := startDaemon(ctx, opt, name+"-nocheckpoint", nil)
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: no-checkpoint daemon: %v\n", name, err)
		return 2
	}
	body, _, err = submitSync(ctx, d3.addr, preq, opt.seed)
	d3.stop()
	if err != nil {
		fmt.Fprintf(opt.out, "hgchaos: %s: no-checkpoint request: %v\n", name, err)
		return 1
	}
	if !bytes.Equal(body, baseline) {
		fmt.Fprintf(opt.out, "hgchaos: %s: no-checkpoint report differs from baseline (%d vs %d bytes)\n",
			name, len(body), len(baseline))
		return 1
	}
	fmt.Fprintf(opt.out, "hgchaos: %s: no-checkpoint daemon byte-identical\n", name)

	// Phase 4: 1-, 2- and 3-worker clusters. Wherever the job lands, the
	// bytes must match the single-node baseline.
	for n := 1; n <= 3; n++ {
		clusterDir := filepath.Join(opt.workdir, fmt.Sprintf("%s-cluster-%d", name, n), "checkpoints")
		if err := os.MkdirAll(clusterDir, 0o755); err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %v\n", name, err)
			return 2
		}
		c, err := startCluster(ctx, opt, fmt.Sprintf("%s-cluster-%d", name, n), n, clusterDir, nil)
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %d workers: %v\n", name, n, err)
			return 2
		}
		body, _, err := submitSync(ctx, c.coord.addr, preq, opt.seed)
		c.stopAll()
		if err != nil {
			fmt.Fprintf(opt.out, "hgchaos: %s: %d workers: %v\n", name, n, err)
			return 1
		}
		if !bytes.Equal(body, baseline) {
			fmt.Fprintf(opt.out, "hgchaos: %s: %d-worker report differs from baseline (%d vs %d bytes)\n",
				name, n, len(body), len(baseline))
			return 1
		}
		fmt.Fprintf(opt.out, "hgchaos: %s: %d worker(s) byte-identical\n", name, n)
	}
	return 0
}
