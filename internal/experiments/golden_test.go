package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// update rewrites the golden files with the current outputs. After an
// intentional model or heuristic change, regenerate and review the diff:
//
//	go test ./internal/experiments/ -run 'Table1Golden|Figure2Golden' -update
var update = flag.Bool("update", false, "rewrite golden files with current outputs")

// goldenAccesses keeps the pins cheap relative to the reproduction-quality
// tests while still exercising every profile and the full size sweep.
const goldenAccesses = 40_000

// checkGolden compares got against the named golden file byte for byte,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; run with -update and review the diff.\n got:\n%s\n want:\n%s",
			name, got, string(want))
	}
}

// TestTable1Golden pins the complete rendered Table 1 — selections, counts
// and formatted energy savings for every benchmark, plus the summary
// averages — at a fixed stream length. Unlike TestTable1GoldenSelections
// (which pins only the chosen configurations at the experiment's default
// length), any numeric drift at all fails here.
func TestTable1Golden(t *testing.T) {
	r := table1(t, goldenAccesses, 0)
	var b strings.Builder
	b.WriteString(r.Table().String())
	fmt.Fprintf(&b, "avgINum=%.2f avgDNum=%.2f avgISave=%.4f avgDSave=%.4f matches=%d optMisses=%d\n",
		r.AvgINum, r.AvgDNum, r.AvgISave, r.AvgDSave, r.PaperMatches, r.OptimumMisses)
	checkGolden(t, "table1.golden", b.String())
}

// TestFigure2Golden pins the Figure 2 size sweep's energy curve point by
// point at full float precision.
func TestFigure2Golden(t *testing.T) {
	points := figure2(t, goldenAccesses, 0)
	var b strings.Builder
	for _, pt := range points {
		fmt.Fprintf(&b, "%d %.9g %.9g %.9g\n", pt.SizeBytes, pt.OnChip, pt.OffChip, pt.Total)
	}
	checkGolden(t, "figure2.golden", b.String())
}
