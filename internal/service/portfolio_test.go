package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hgpart/internal/service"
)

// portfolioReq is a fast deterministic mode=portfolio request.
const portfolioReq = `{"benchmark":"ibm01","scale":0.1,"mode":"portfolio","starts":2,"seed":7}`

// TestPortfolioModeEndToEnd is the service half of the portfolio determinism
// contract: the same mode=portfolio request must produce byte-identical
// reports on repeat (cache hit), on a server with no checkpoint dir, and on
// a fresh server sharing the first server's checkpoint dir — where the
// result cache is cold, so the report is recomputed. A restart changing a
// single byte would poison the content-addressed cache.
func TestPortfolioModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, hs := testServer(t, func(c *service.Config) { c.CheckpointDir = dir })

	resp, body := post(t, hs, portfolioReq)
	if resp.StatusCode != 200 {
		t.Fatalf("portfolio request failed: %d %s", resp.StatusCode, body)
	}
	var rep service.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Engine != "portfolio" || rep.Cut <= 0 {
		t.Fatalf("implausible portfolio report: engine %q cut %d", rep.Engine, rep.Cut)
	}
	p := rep.Portfolio
	if p == nil {
		t.Fatal("report has no portfolio section")
	}
	if p.Bucket == "" || p.Winner == "" || len(p.Arms) == 0 {
		t.Fatalf("incomplete portfolio section: %+v", p)
	}
	if p.Source != "race" && p.Source != "commit" {
		t.Fatalf("portfolio source = %q", p.Source)
	}
	won := 0
	for _, a := range p.Arms {
		if a.Won {
			won++
			if a.Arm != p.Winner {
				t.Fatalf("won arm %q != winner %q", a.Arm, p.Winner)
			}
		}
	}
	if won != 1 {
		t.Fatalf("%d arms marked won, want exactly 1", won)
	}

	// Repeat: pure cache hit with identical bytes.
	resp2, body2 := post(t, hs, portfolioReq)
	if resp2.Header.Get("X-Hgserved-Cache") != "hit" {
		t.Fatalf("repeat disposition %q, want hit", resp2.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cache hit differs from computed body")
	}

	// A server with no checkpoint dir must agree byte for byte.
	_, hsNoCP := testServer(t, nil)
	resp3, body3 := post(t, hsNoCP, portfolioReq)
	if resp3.StatusCode != 200 {
		t.Fatalf("no-checkpoint request failed: %d %s", resp3.StatusCode, body3)
	}
	if !bytes.Equal(body, body3) {
		t.Fatalf("no-checkpoint server disagrees:\n%s\nvs\n%s", body, body3)
	}

	// A fresh server on the same checkpoint dir has a cold result cache: the
	// report is recomputed and must not move a byte.
	_, hsRestart := testServer(t, func(c *service.Config) { c.CheckpointDir = dir })
	resp4, body4 := post(t, hsRestart, portfolioReq)
	if resp4.StatusCode != 200 {
		t.Fatalf("restarted request failed: %d %s", resp4.StatusCode, body4)
	}
	if resp4.Header.Get("X-Hgserved-Cache") != "miss" {
		t.Fatalf("restarted disposition %q, want miss (cold cache)", resp4.Header.Get("X-Hgserved-Cache"))
	}
	if !bytes.Equal(body, body4) {
		t.Fatalf("restarted server disagrees:\n%s\nvs\n%s", body, body4)
	}
}

// TestPortfolioValidationAndMetrics: bad modes are 400s, and a served
// portfolio race shows up in the Prometheus counters with its bucket/arm
// labels.
func TestPortfolioValidationAndMetrics(t *testing.T) {
	_, hs := testServer(t, nil)

	if resp, body := post(t, hs, `{"benchmark":"ibm01","mode":"racing"}`); resp.StatusCode != 400 {
		t.Fatalf("unknown mode: %d %s, want 400", resp.StatusCode, body)
	}
	if resp, body := post(t, hs, `{"benchmark":"ibm01","mode":"portfolio","refine_threads":2}`); resp.StatusCode != 400 {
		t.Fatalf("portfolio+refine_threads: %d %s, want 400", resp.StatusCode, body)
	}

	if resp, body := post(t, hs, portfolioReq); resp.StatusCode != 200 {
		t.Fatalf("portfolio request failed: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"hgserved_portfolio_races_total 1",
		`hgserved_portfolio_arm_wins_total{bucket="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestStatsHitRatio is the /v1/stats regression for the result-cache hit
// ratio row: one miss plus one hit must render as 0.500, and the row must
// survive the zero-lookup case (fresh server renders 0.000, not NaN).
func TestStatsHitRatio(t *testing.T) {
	_, hs := testServer(t, nil)

	stats := func() string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		return b.String()
	}

	if text := stats(); !strings.Contains(text, "cache hit ratio") || !strings.Contains(text, "0.000") {
		t.Fatalf("fresh /v1/stats missing zero hit ratio:\n%s", text)
	}
	post(t, hs, smallReq) // miss
	post(t, hs, smallReq) // hit
	if text := stats(); !strings.Contains(text, "0.500") {
		t.Fatalf("/v1/stats hit ratio not 0.500 after one miss + one hit:\n%s", text)
	}
}

// TestPortfolioWallBudgetNeverReportsCancelled: a wall budget that expires
// mid-job is a budget outcome, never a cancellation. Expiring during the
// commit must yield the documented incomplete 200 (uncached); expiring
// during the race is the one 422. No budget may surface as 409 "job
// cancelled" — the outer deadline and the commit's own wall budget used to
// race, and the outer one almost always won.
func TestPortfolioWallBudgetNeverReportsCancelled(t *testing.T) {
	_, hs := testServer(t, func(c *service.Config) { c.StartWorkers = 1 })
	// Double the budget from 1ms until one expires during the commit: the
	// sweep adapts to the host (and the race detector's slowdown) while
	// covering both phases. 2000 commit starts outlast every budget tried.
	for ms := 1; ms <= 16000; ms *= 2 {
		body := fmt.Sprintf(`{"benchmark":"ibm01","scale":0.1,"mode":"portfolio","starts":2000,"seed":9,"wall_budget_ms":%d}`, ms)
		resp, out := post(t, hs, body)
		switch resp.StatusCode {
		case 200:
			var rep service.Report
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatalf("wall %dms: report does not parse: %v", ms, err)
			}
			if !rep.Incomplete || rep.Reason != "wall-clock budget exhausted" {
				t.Fatalf("wall %dms: 200 with incomplete=%v reason %q, want an expired commit",
					ms, rep.Incomplete, rep.Reason)
			}
			if code := getJSON(t, hs, "/internal/v1/cache/"+rep.CacheKey, nil); code != http.StatusNotFound {
				t.Fatalf("wall %dms: incomplete report was cached (peer lookup %d)", ms, code)
			}
			return
		case 422:
			if !strings.Contains(string(out), "wall budget expired during the portfolio race") {
				t.Fatalf("wall %dms: 422 without the race-expiry message: %s", ms, out)
			}
		default:
			t.Fatalf("wall %dms: status %d %s", ms, resp.StatusCode, out)
		}
	}
	t.Fatal("no budget up to 16s expired during the commit")
}

// TestPortfolioWorkBudgetKeyed: the race's per-arm share is work_budget/4,
// so a complete budgeted portfolio report carries different arm traces than
// the unbudgeted one and must not share its cache entry.
func TestPortfolioWorkBudgetKeyed(t *testing.T) {
	// Reference: the unbudgeted answer from a fresh server, whose one-start
	// arm traces also size a budget that gives every arm several race starts
	// and the commit ample room to finish.
	_, ref := testServer(t, nil)
	refResp, refBody := post(t, ref, portfolioReq)
	if refResp.StatusCode != 200 {
		t.Fatalf("reference run failed: %d %s", refResp.StatusCode, refBody)
	}
	var refRep service.Report
	if err := json.Unmarshal(refBody, &refRep); err != nil {
		t.Fatal(err)
	}
	var maxWork int64
	for _, a := range refRep.Portfolio.Arms {
		maxWork = max(maxWork, a.Work)
	}
	budget := 4 * int64(len(refRep.Portfolio.Arms)) * 3 * maxWork

	_, hs := testServer(t, nil)
	budgeted := strings.Replace(portfolioReq, `"seed":7`, fmt.Sprintf(`"seed":7,"work_budget":%d`, budget), 1)
	resp, body := post(t, hs, budgeted)
	if resp.StatusCode != 200 {
		t.Fatalf("budgeted run failed: %d %s", resp.StatusCode, body)
	}
	var rep service.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatalf("budget %d truncated the run (%s); the test needs a complete budgeted report", budget, rep.Reason)
	}
	if rep.Portfolio.Arms[0].Starts < 2 {
		t.Fatalf("budget %d gave arm 0 only %d race start(s); traces would match the unbudgeted race",
			budget, rep.Portfolio.Arms[0].Starts)
	}

	resp2, body2 := post(t, hs, portfolioReq)
	if resp2.StatusCode != 200 {
		t.Fatalf("unbudgeted run failed: %d %s", resp2.StatusCode, body2)
	}
	if d := resp2.Header.Get("X-Hgserved-Cache"); d != "miss" {
		t.Fatalf("unbudgeted request after a budgeted one: disposition %q, want miss", d)
	}
	if !bytes.Equal(body2, refBody) {
		t.Fatalf("unbudgeted report differs from a fresh server's:\n%s\nvs\n%s", body2, refBody)
	}
}
