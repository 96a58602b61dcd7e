package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps experiment tests fast: 2%-size instances, few runs.
func tinyOpts() Options {
	return Options{Scale: 0.03, Runs: 3, Reps: 1, StartCounts: []int{1, 2}, Seed: 42}
}

func parseMinAvg(t *testing.T, cell string) (float64, float64) {
	t.Helper()
	parts := strings.Split(cell, "/")
	if len(parts) != 2 {
		t.Fatalf("cell %q not min/avg", cell)
	}
	mn, err1 := strconv.ParseFloat(parts[0], 64)
	avg, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("cell %q unparseable", cell)
	}
	return mn, avg
}

func TestTable1Shape(t *testing.T) {
	tab := Table1(tinyOpts())
	if len(tab.Headers) != 6 {
		t.Fatalf("headers %v", tab.Headers)
	}
	// 4 engines x 6 combos = 24 rows.
	if len(tab.Rows) != 24 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	engines := map[string]int{}
	for _, row := range tab.Rows {
		engines[row[0]]++
		for _, cell := range row[3:] {
			mn, avg := parseMinAvg(t, cell)
			if mn <= 0 || avg < mn {
				t.Fatalf("bad cell %q", cell)
			}
		}
	}
	for _, e := range []string{"Flat LIFO FM", "Flat CLIP FM", "ML LIFO FM", "ML CLIP FM"} {
		if engines[e] != 6 {
			t.Fatalf("engine %q has %d rows", e, engines[e])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2(tinyOpts())
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != "Reported LIFO" || tab.Rows[1][1] != "Our LIFO" {
		t.Fatalf("row labels %v", tab.Rows)
	}
	// Tolerances 02% then 10%.
	if tab.Rows[0][0] != "02%" || tab.Rows[2][0] != "10%" {
		t.Fatalf("tolerance labels %v %v", tab.Rows[0][0], tab.Rows[2][0])
	}
}

func TestTable2OursBeatsReported(t *testing.T) {
	// The headline phenomenon must hold even at tiny scale, on average
	// across instances.
	tab := Table2(Options{Scale: 0.05, Runs: 6, Reps: 1, StartCounts: []int{1}, Seed: 7})
	var repAvg, ourAvg float64
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			_, avg := parseMinAvg(t, cell)
			if strings.HasPrefix(row[1], "Reported") {
				repAvg += avg
			} else {
				ourAvg += avg
			}
		}
	}
	if ourAvg >= repAvg {
		t.Fatalf("tuned LIFO (%f) not better than naive (%f)", ourAvg, repAvg)
	}
}

func TestTable3Shape(t *testing.T) {
	tab := Table3(tinyOpts())
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][1], "CLIP") {
		t.Fatalf("labels %v", tab.Rows[0])
	}
}

func TestTable45Shape(t *testing.T) {
	tab := Table45(tinyOpts(), 0.02)
	if len(tab.Rows) != len(table45Instances) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if len(tab.Headers) != 1+2 {
		t.Fatalf("headers %v", tab.Headers)
	}
	if !strings.HasPrefix(tab.Title, "Table 4") {
		t.Fatalf("title %q", tab.Title)
	}
	if !strings.HasPrefix(Table45(tinyOpts(), 0.10).Title, "Table 5") {
		t.Fatal("tolerance 0.10 should be Table 5")
	}
	for _, row := range tab.Rows {
		if !strings.HasPrefix(row[0], "ibm") {
			t.Fatalf("circuit label %q", row[0])
		}
		for _, cell := range row[1:] {
			parts := strings.Split(cell, "/")
			if len(parts) != 2 {
				t.Fatalf("cell %q", cell)
			}
		}
	}
}

func TestFigureBSFShape(t *testing.T) {
	tab := FigureBSF(tinyOpts())
	if len(tab.Headers) != 4 {
		t.Fatalf("headers %v", tab.Headers)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no budget rows")
	}
}

func TestFigureParetoShape(t *testing.T) {
	tab := FigurePareto(tinyOpts())
	// 3 instances x 3 heuristics x 3 start counts = 27 points.
	if len(tab.Rows) != 27 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	frontier := 0
	for _, row := range tab.Rows {
		if row[4] == "*" {
			frontier++
		}
	}
	if frontier == 0 {
		t.Fatal("empty frontier")
	}
}

func TestFigureRankingShape(t *testing.T) {
	tab := FigureRanking(tinyOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("no ranking cells")
	}
	for _, row := range tab.Rows {
		if row[2] == "" {
			t.Fatalf("missing winner in %v", row)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o.Scale != d.Scale || o.Runs != d.Runs || o.Reps != d.Reps || o.Seed != d.Seed {
		t.Fatalf("defaults not applied: %+v", o)
	}
	p := PaperOptions()
	if p.Scale != 1 || p.Runs != 100 || p.Reps != 50 {
		t.Fatalf("paper protocol wrong: %+v", p)
	}
	if len(p.StartCounts) != 6 || p.StartCounts[5] != 100 {
		t.Fatalf("paper start counts %v", p.StartCounts)
	}
}

func TestTableCorkingShape(t *testing.T) {
	tab := TableCorking(Options{Scale: 0.04, Runs: 3, Seed: 11})
	// 2 instances x 2 area modes x 2 guard settings = 8 rows.
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "true" && row[2] != "false" {
			t.Fatalf("guard cell %q", row[2])
		}
	}
}

func TestTableInsertionShape(t *testing.T) {
	tab := TableInsertion(Options{Scale: 0.03, Runs: 3, Seed: 12})
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][0] != "LIFO" || tab.Rows[1][0] != "FIFO" || tab.Rows[2][0] != "Random" {
		t.Fatalf("row labels %v", tab.Rows)
	}
}

func TestTableSignificanceShape(t *testing.T) {
	tab := TableSignificance(Options{Scale: 0.03, Runs: 10, Seed: 13})
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// The naive-vs-tuned gap must be detected even at tiny scale.
	if tab.Rows[0][6] != "true" {
		t.Fatalf("naive-vs-tuned not significant: %v", tab.Rows[0])
	}
}

func TestTableRegimesShape(t *testing.T) {
	tab := TableRegimes(Options{Scale: 0.03, Runs: 8, Seed: 14})
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	labels := map[string]bool{}
	for _, row := range tab.Rows {
		labels[row[0]] = true
	}
	for _, want := range []string{"best-of-k", "pruned", "budget", "P(ML beats flat)"} {
		if !labels[want] {
			t.Fatalf("missing regime %q", want)
		}
	}
}

func TestFigureBSFChartRenders(t *testing.T) {
	out := FigureBSFChart(Options{Scale: 0.03, Runs: 6, Seed: 15})
	if len(out) == 0 {
		t.Fatal("empty chart")
	}
	for _, name := range []string{"flat-LIFO", "flat-CLIP", "ML"} {
		if !containsStr(out, name) {
			t.Fatalf("chart missing legend %q", name)
		}
	}
}

func containsStr(s, sub string) bool {
	return strings.Contains(s, sub)
}

func TestTableBenchmarkEraShape(t *testing.T) {
	tab := TableBenchmarkEra(Options{Scale: 0.04, Runs: 6, Seed: 16})
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	suites := map[string]int{}
	for _, row := range tab.Rows {
		suites[row[0]]++
	}
	if suites["MCNC"] != 2 || suites["ISPD98"] != 2 {
		t.Fatalf("suite rows %v", suites)
	}
}

// Below 500 cells no limit can end a pass, so every row of an instance must
// repeat the full pass's cut and work exactly; a cancelled sweep marks its
// cells.
func TestTableIdleFrontierShape(t *testing.T) {
	tab := TableIdleFrontier(Options{Scale: 0.02, Runs: 3, Seed: 17}, 0.02)
	if len(tab.Rows) != 3*2*len(idleLimits) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		full := tab.Rows[i-i%len(idleLimits)+len(idleLimits)-1]
		if row[3] != full[3] || row[6] != full[6] {
			t.Fatalf("limit row %v differs from its full pass %v on an instance too small to trigger it", row, full)
		}
		if row[2] != "full pass" && (row[4] != "0/0" || row[5] != "1.000") {
			t.Fatalf("limit row %v should tie the full pass on every seed", row)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab = TableIdleFrontier(Options{Scale: 0.02, Runs: 3, Seed: 17, Ctx: ctx}, 0.02)
	if tab.Rows[0][3] != cancelledCell {
		t.Fatalf("cancelled sweep row %v not marked", tab.Rows[0])
	}
}
