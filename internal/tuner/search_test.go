package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// tableEval builds an evaluator from an explicit energy table.
func tableEval(t *testing.T, energies map[string]float64) Evaluator {
	t.Helper()
	return EvaluatorFunc(func(cfg cache.Config) EvalResult {
		e, ok := energies[cfg.String()]
		if !ok {
			t.Fatalf("search evaluated unexpected config %v", cfg)
		}
		return EvalResult{Cfg: cfg, Energy: e}
	})
}

func TestSearchStopsWhenSizeGrowthStopsPaying(t *testing.T) {
	// bcnt-like: 2K best, 4K worse; line 32 better, 64 worse. The search
	// must examine exactly 4 configurations (Table 1's bcnt row).
	ev := tableEval(t, map[string]float64{
		"2K_1W_16B": 10, "4K_1W_16B": 12,
		"2K_1W_32B": 8, "2K_1W_64B": 9,
	})
	res := SearchPaper(ev)
	if res.Best.Cfg.String() != "2K_1W_32B" {
		t.Errorf("best = %v, want 2K_1W_32B", res.Best.Cfg)
	}
	if res.NumExamined() != 4 {
		t.Errorf("examined %d configs, want 4", res.NumExamined())
	}
}

func TestSearchFullSweep(t *testing.T) {
	// g721-like: everything improves monotonically; prediction helps.
	// 3 sizes + 2 lines + 2 assocs + 1 pred = 8 examined (Table 1 g721).
	ev := tableEval(t, map[string]float64{
		"2K_1W_16B": 100, "4K_1W_16B": 90, "8K_1W_16B": 80,
		"8K_1W_32B": 85,
		"8K_2W_16B": 70, "8K_4W_16B": 60,
		"8K_4W_16B_P": 50,
	})
	res := SearchPaper(ev)
	if res.Best.Cfg.String() != "8K_4W_16B_P" {
		t.Errorf("best = %v, want 8K_4W_16B_P", res.Best.Cfg)
	}
	if res.NumExamined() != 7 {
		t.Errorf("examined %d configs, want 7", res.NumExamined())
	}
}

func TestSearchDoesNotTryPredictionOnDirectMapped(t *testing.T) {
	ev := tableEval(t, map[string]float64{
		"2K_1W_16B": 10, "4K_1W_16B": 20,
		"2K_1W_32B": 15,
	})
	res := SearchPaper(ev)
	if res.Best.Cfg.String() != "2K_1W_16B" {
		t.Errorf("best = %v, want 2K_1W_16B", res.Best.Cfg)
	}
	for _, r := range res.Examined {
		if r.Cfg.WayPredict {
			t.Errorf("prediction examined on %v", r.Cfg)
		}
	}
}

func TestSearchRespectsSizeAssocConstraint(t *testing.T) {
	// When 4 KB wins the size sweep, the assoc sweep may only offer
	// 2-way (4-way needs 8 KB).
	ev := tableEval(t, map[string]float64{
		"2K_1W_16B": 100, "4K_1W_16B": 50, "8K_1W_16B": 60,
		"4K_1W_32B":   55,
		"4K_2W_16B":   40,
		"4K_2W_16B_P": 39,
	})
	res := SearchPaper(ev)
	if res.Best.Cfg.String() != "4K_2W_16B_P" {
		t.Errorf("best = %v, want 4K_2W_16B_P", res.Best.Cfg)
	}
}

func TestSearchNeverShrinksMidSweep(t *testing.T) {
	// Every examined transition relative to the previous examined config
	// must be flush-free growth, except retreats to the incumbent after
	// a failed probe (which the online tuner pays for at settle time).
	for _, prof := range workload.Profiles() {
		ev := NewTraceEvaluator(prof.Generate(60_000), energy.DefaultParams())
		res := SearchPaper(ev)
		best := res.Examined[0]
		for _, r := range res.Examined[1:] {
			if !best.Cfg.Grows(r.Cfg) {
				t.Errorf("%s: probe %v does not grow from incumbent %v",
					prof.Name, r.Cfg, best.Cfg)
			}
			if r.Energy < best.Energy {
				best = r
			}
		}
	}
}

func TestExhaustiveCoversAll27(t *testing.T) {
	ev := EvaluatorFunc(func(cfg cache.Config) EvalResult {
		return EvalResult{Cfg: cfg, Energy: float64(cfg.SizeBytes)}
	})
	res := Exhaustive(ev)
	if res.NumExamined() != 27 {
		t.Errorf("exhaustive examined %d, want 27", res.NumExamined())
	}
	if res.Best.Cfg.SizeBytes != 2048 {
		t.Errorf("exhaustive best = %v, want a 2K config", res.Best.Cfg)
	}
}

func TestHeuristicNearOptimalOnProfiles(t *testing.T) {
	// §4: the heuristic finds the optimum in nearly all cases and is
	// never more than a few percent worse.
	p := energy.DefaultParams()
	worst := 0.0
	misses := 0
	for _, prof := range workload.Profiles() {
		accs := prof.Generate(150_000)
		inst, data := trace.Split(accs)
		for _, stream := range [][]trace.Access{inst, data} {
			ev := NewTraceEvaluator(stream, p)
			h := SearchPaper(ev)
			x := Exhaustive(ev)
			ratio := h.Best.Energy / x.Best.Energy
			if ratio > worst {
				worst = ratio
			}
			if h.Best.Cfg != x.Best.Cfg {
				misses++
			}
			if ratio > 1.15 {
				t.Errorf("%s: heuristic %v is %.1f%% worse than optimal %v",
					prof.Name, h.Best.Cfg, (ratio-1)*100, x.Best.Cfg)
			}
		}
	}
	t.Logf("heuristic missed the optimum on %d of %d streams; worst excess %.1f%%",
		misses, 2*len(workload.Profiles()), (worst-1)*100)
	if misses > 8 {
		t.Errorf("heuristic missed the optimum on %d streams; the paper reports nearly always optimal", misses)
	}
}

func TestAlternativeOrderIsWorse(t *testing.T) {
	// §4: the line/assoc/pred/size ordering misses the optimum far more
	// often than the paper ordering.
	p := energy.DefaultParams()
	paperMisses, altMisses := 0, 0
	for _, prof := range workload.Profiles() {
		accs := prof.Generate(120_000)
		inst, data := trace.Split(accs)
		for _, stream := range [][]trace.Access{inst, data} {
			ev := NewTraceEvaluator(stream, p)
			opt := Exhaustive(ev).Best.Cfg
			if Search(ev, PaperOrder).Best.Cfg != opt {
				paperMisses++
			}
			if Search(ev, AlternativeOrder).Best.Cfg != opt {
				altMisses++
			}
		}
	}
	t.Logf("paper order missed %d, alternative order missed %d (of %d streams)",
		paperMisses, altMisses, 2*len(workload.Profiles()))
	if altMisses <= paperMisses {
		t.Errorf("alternative ordering (%d misses) not worse than paper ordering (%d misses)", altMisses, paperMisses)
	}
}

func TestSearchAverageExaminedMatchesPaperScale(t *testing.T) {
	// §4: the heuristic examines ~5.4-5.8 configurations on average,
	// versus 27 exhaustively.
	p := energy.DefaultParams()
	total := 0
	n := 0
	for _, prof := range workload.Profiles() {
		accs := prof.Generate(100_000)
		inst, data := trace.Split(accs)
		for _, stream := range [][]trace.Access{inst, data} {
			total += SearchPaper(NewTraceEvaluator(stream, p)).NumExamined()
			n++
		}
	}
	avg := float64(total) / float64(n)
	t.Logf("average configurations examined: %.2f", avg)
	if avg < 3 || avg > 9 {
		t.Errorf("average examined = %.2f, want the paper's ~5-6 range", avg)
	}
}
