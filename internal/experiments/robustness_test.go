package experiments

import (
	"reflect"
	"testing"
)

func smallSweep() FaultSweepOptions {
	return FaultSweepOptions{
		N:          20_000,
		Rates:      []float64{0, 0.02},
		Trials:     3,
		Seed:       1,
		Benchmarks: []string{"crc", "adpcm"},
	}
}

// TestFaultSweepDeterministicAcrossWorkers pins the Monte Carlo harness's
// reproducibility contract: a fixed seed gives bit-identical results across
// runs and at any worker count.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := FaultSweepWorkers(smallSweep(), 1)
	again := FaultSweepWorkers(smallSweep(), 1)
	parallel := FaultSweepWorkers(smallSweep(), 4)
	if !reflect.DeepEqual(serial, again) {
		t.Error("fault sweep is not reproducible across runs")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("fault sweep diverged across worker counts")
	}
	// At a heavy fault rate different seeds draw different faults and the
	// aggregate outcomes diverge. (At gentle rates two seeds can
	// legitimately produce identical aggregates: the heuristic often picks
	// the same configuration despite different fault draws.)
	heavy1, heavy2 := smallSweep(), smallSweep()
	heavy1.Rates, heavy2.Rates = []float64{0.5}, []float64{0.5}
	heavy1.Trials, heavy2.Trials = 8, 8
	heavy2.Seed = 2
	if reflect.DeepEqual(FaultSweepWorkers(heavy1, 4), FaultSweepWorkers(heavy2, 4)) {
		t.Error("different seeds produced identical sweeps under heavy faults")
	}
}

// TestFaultSweepCleanControlRow pins the rate-0 control: with every injector
// off, each trial reduces to the clean heuristic — no degradations, every
// trial within tolerance (the heuristic is near-optimal on these
// benchmarks), and all trials of a cell identical (WorstExcess == AvgExcess).
func TestFaultSweepCleanControlRow(t *testing.T) {
	res := FaultSweepWorkers(smallSweep(), 0)
	found := 0
	for _, c := range res.Cells {
		if c.Rate != 0 {
			continue
		}
		found++
		if c.Degraded != 0 {
			t.Errorf("%s: %d degradations at rate 0", c.Bench, c.Degraded)
		}
		if c.WithinTol != c.Trials {
			t.Errorf("%s: only %d/%d clean trials within tolerance", c.Bench, c.WithinTol, c.Trials)
		}
		if c.AvgExcess != c.WorstExcess {
			t.Errorf("%s: clean trials differ (avg %v, worst %v)", c.Bench, c.AvgExcess, c.WorstExcess)
		}
		if c.AvgExcess < 0 || c.AvgExcess > 0.05 {
			t.Errorf("%s: clean heuristic excess %v outside [0, 5%%]", c.Bench, c.AvgExcess)
		}
	}
	if found != 2 {
		t.Fatalf("found %d rate-0 cells, want 2", found)
	}
}

// TestFaultSweepSurvivesHeavyFaults pins that the harness itself is robust:
// at a brutal fault rate every trial still completes (degrading is fine,
// panicking is not) and the accounting adds up.
func TestFaultSweepSurvivesHeavyFaults(t *testing.T) {
	opt := smallSweep()
	opt.Rates = []float64{0.5}
	opt.Trials = 4
	res := FaultSweepWorkers(opt, 0)
	for _, c := range res.Cells {
		if c.Trials != opt.Trials {
			t.Errorf("%s: %d trials recorded, want %d", c.Bench, c.Trials, opt.Trials)
		}
		if c.WithinTol < 0 || c.WithinTol > c.Trials || c.Degraded < 0 || c.Degraded > c.Trials {
			t.Errorf("%s: inconsistent accounting: %+v", c.Bench, c)
		}
	}
}
