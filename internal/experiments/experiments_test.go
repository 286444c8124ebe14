package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"selftune/internal/energy"
)

const testAccesses = 150_000

// table1 runs Table1Ctx with the default parameters, failing t on error.
func table1(t *testing.T, n, workers int) Table1Result {
	t.Helper()
	r, err := Table1Ctx(context.Background(), n, energy.DefaultParams(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// figure2 runs Figure2Ctx with the default parameters, failing t on error.
func figure2(t *testing.T, n, workers int) []Fig2Point {
	t.Helper()
	pts, err := Figure2Ctx(context.Background(), n, energy.DefaultParams(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// figure34 runs Figure34Ctx with the default parameters, failing t on
// error.
func figure34(t *testing.T, n int, inst bool, workers int) []Fig34Row {
	t.Helper()
	rows, err := Figure34Ctx(context.Background(), n, inst, energy.DefaultParams(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTable1ReproductionQuality pins the headline reproduction claims:
// nearly all per-cache selections match the paper's Table 1, the heuristic
// examines ~5-6 configurations, and savings land in the paper's band.
func TestTable1ReproductionQuality(t *testing.T) {
	r := table1(t, testAccesses, 0)
	if len(r.Rows) != 19 {
		t.Fatalf("rows = %d, want 19", len(r.Rows))
	}
	total := 2 * len(r.Rows)
	t.Logf("paper matches %d/%d, avg examined %.1f/%.1f, avg savings %.1f%%/%.1f%%, optimum misses %d (worst +%.0f%%)",
		r.PaperMatches, total, r.AvgINum, r.AvgDNum,
		100*r.AvgISave, 100*r.AvgDSave, r.OptimumMisses, 100*r.WorstOptimumExcess)
	if r.PaperMatches < total-3 {
		t.Errorf("only %d of %d selections match the paper", r.PaperMatches, total)
	}
	if r.AvgINum < 4 || r.AvgINum > 7 || r.AvgDNum < 4 || r.AvgDNum > 7 {
		t.Errorf("avg examined %.1f/%.1f outside the paper's ~5-6 band", r.AvgINum, r.AvgDNum)
	}
	if r.AvgISave < 0.40 || r.AvgISave > 0.65 {
		t.Errorf("avg I savings %.1f%% outside the paper's band", 100*r.AvgISave)
	}
	if r.AvgDSave < 0.15 {
		t.Errorf("avg D savings %.1f%% implausibly low", 100*r.AvgDSave)
	}
	if r.OptimumMisses > 5 {
		t.Errorf("heuristic missed the optimum on %d streams", r.OptimumMisses)
	}
	// The paper's two known failure cases must fail here too.
	for _, row := range r.Rows {
		if row.Name == "pjpeg" || row.Name == "mpeg2" {
			if row.DCfg == row.DOpt {
				t.Errorf("%s D: heuristic found the optimum; the paper's failure case did not reproduce", row.Name)
			}
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	r := table1(t, 40_000, 0)
	out := r.Table().String()
	for _, want := range []string{"Ben.", "crc", "mpeg2", "Average:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 19+3 {
		t.Errorf("table has %d lines, want 22", lines)
	}
}

// TestFigure2Shape pins the Figure 2 curve: off-chip energy monotone
// non-increasing, on-chip eventually increasing, total with an interior
// minimum in the 8-64 KB region.
func TestFigure2Shape(t *testing.T) {
	pts := figure2(t, testAccesses, 0)
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11 (1 KB..1 MB)", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OffChip > pts[i-1].OffChip*1.01 {
			t.Errorf("off-chip energy rose at %d KB", pts[i].SizeBytes/1024)
		}
	}
	if pts[len(pts)-1].OnChip < 2*pts[0].OnChip {
		t.Errorf("cache energy at 1 MB (%.3g) not well above 1 KB (%.3g)",
			pts[len(pts)-1].OnChip, pts[0].OnChip)
	}
	knee := Knee(pts)
	if knee.SizeBytes < 8<<10 || knee.SizeBytes > 64<<10 {
		t.Errorf("total-energy knee at %d KB, want the paper's 8-64 KB region", knee.SizeBytes/1024)
	}
	if knee.Total >= pts[0].Total || knee.Total >= pts[len(pts)-1].Total {
		t.Error("knee is not an interior minimum")
	}
}

// TestFigure34Claims pins the paper's §3.2 impact analysis on the swept
// averages: size dominates, line matters more for data, associativity least.
func TestFigure34Claims(t *testing.T) {
	for _, inst := range []bool{true, false} {
		rows := figure34(t, testAccesses, inst, 0)
		if len(rows) != 18 {
			t.Fatalf("rows = %d, want 18 base configurations", len(rows))
		}
		get := func(s string) Fig34Row {
			for _, r := range rows {
				if r.Cfg.String() == s {
					return r
				}
			}
			t.Fatalf("config %s missing", s)
			return Fig34Row{}
		}
		// Size impact: 2K vs 8K at fixed line/assoc changes miss rate by
		// a large factor.
		if small, big := get("2K_1W_16B"), get("8K_1W_16B"); small.AvgMissRate < 2*big.AvgMissRate {
			t.Errorf("inst=%v: size barely moves the miss rate: %.3f vs %.3f",
				inst, small.AvgMissRate, big.AvgMissRate)
		}
		// Normalisation: max is 1, everything in (0, 1].
		maxSeen := 0.0
		for _, r := range rows {
			if r.Normalised <= 0 || r.Normalised > 1 {
				t.Errorf("normalised energy %f out of range", r.Normalised)
			}
			if r.Normalised > maxSeen {
				maxSeen = r.Normalised
			}
		}
		if maxSeen != 1 {
			t.Errorf("max normalised energy = %f, want 1", maxSeen)
		}
	}
}

// TestWindowSensitivity pins the tradeoff of the tuner's measurement
// interval: longer windows never choose worse on stationary streams, and
// even short windows stay within a reasonable band of the offline optimum.
func TestWindowSensitivity(t *testing.T) {
	pts := WindowSensitivityWorkers(2_000_000, []uint64{1_000, 10_000, 40_000}, energy.DefaultParams(), 0)
	for _, pt := range pts {
		t.Logf("window=%6d avg-excess=%5.1f%% worst=%5.1f%% avg-tuning-length=%.0f",
			pt.Window, 100*pt.AvgExcess, 100*pt.WorstExcess, pt.AvgTuningLength)
	}
	if pts[2].AvgExcess > pts[0].AvgExcess+0.02 {
		t.Errorf("longer windows chose worse: %.3f vs %.3f", pts[2].AvgExcess, pts[0].AvgExcess)
	}
	if pts[1].AvgExcess > 0.30 {
		t.Errorf("10k-window online tuning averages %.0f%% above optimal", 100*pts[1].AvgExcess)
	}
	if pts[0].AvgTuningLength >= pts[2].AvgTuningLength {
		t.Error("shorter windows did not settle sooner")
	}
}

// TestTable1GoldenSelections pins every per-benchmark selection against the
// checked-in golden file, so any drift in the cache model, energy model or
// heuristic shows up as a named row. Regenerate after an intentional change:
//
//	go run ./cmd/benchtab -csv -n 150000 | cut -d, -f1,2,5 | head -20 \
//	  > internal/experiments/testdata/table1_selections.csv
func TestTable1GoldenSelections(t *testing.T) {
	raw, err := os.ReadFile("testdata/table1_selections.csv")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][2]string{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if i == 0 {
			continue // header
		}
		f := strings.Split(line, ",")
		if len(f) != 3 {
			t.Fatalf("golden line %d malformed: %q", i+1, line)
		}
		golden[f[0]] = [2]string{f[1], f[2]}
	}
	r := table1(t, testAccesses, 0)
	if len(golden) != len(r.Rows) {
		t.Fatalf("golden has %d rows, table has %d", len(golden), len(r.Rows))
	}
	for _, row := range r.Rows {
		want, ok := golden[row.Name]
		if !ok {
			t.Errorf("%s missing from golden file", row.Name)
			continue
		}
		if got := row.ICfg.String(); got != want[0] {
			t.Errorf("%s I-cache selection drifted: %s, golden %s", row.Name, got, want[0])
		}
		if got := row.DCfg.String(); got != want[1] {
			t.Errorf("%s D-cache selection drifted: %s, golden %s", row.Name, got, want[1])
		}
	}
}
