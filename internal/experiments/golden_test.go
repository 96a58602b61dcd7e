package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hgpart/internal/report"
)

// TestSequentialTablesGolden pins the bytes of the tables built on the
// sequential multistart drivers (eval.Multistart and eval.BestOfK) at
// tinyOpts scale: a refactor of the drivers must keep every start's seed
// and the best-of-k polish rule, so the rendered tables cannot move.
func TestSequentialTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four tables")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sequential_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOpts()
	var got strings.Builder
	for _, tab := range []*report.Table{Table1(o), Table45(o, 0.02), TableRegimes(o), TableSignificance(o)} {
		got.WriteString(tab.String())
		got.WriteString("\n")
	}
	if got.String() != string(want) {
		t.Fatalf("sequential tables drifted from testdata/sequential_tables.golden:\n%s", got.String())
	}
}
