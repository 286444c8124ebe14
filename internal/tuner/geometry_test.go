package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// eightBank is the §3.4 larger-cache study geometry: eight 4 KB banks
// (4-32 KB, up to 8-way, lines to 128 B) — 64 configurations.
func eightBank() cache.Geometry {
	return cache.Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
}

func TestGeometrySpaceMatchesDefaultOnFourBank(t *testing.T) {
	// SearchInSpace over the FourBank geometry must make exactly the
	// decisions Search makes in the paper space.
	p := energy.DefaultParams()
	for _, name := range []string{"crc", "jpeg", "mpeg2"} {
		prof, _ := workload.ByName(name)
		inst, data := trace.Split(prof.Generate(100_000))
		for _, stream := range [][]trace.Access{inst, data} {
			ev := NewTraceEvaluator(stream, p)
			a := Search(ev, PaperOrder)
			b := SearchInSpace(ev, PaperOrder, GeometrySpace(cache.FourBank()))
			if a.Best.Cfg != b.Best.Cfg || a.NumExamined() != b.NumExamined() {
				t.Errorf("%s: geometry space %v/%d vs default %v/%d",
					name, b.Best.Cfg, b.NumExamined(), a.Best.Cfg, a.NumExamined())
			}
		}
	}
}

func TestGeometryModelAgreesWithTraceEvaluator(t *testing.T) {
	// On the FourBank geometry the geometry-aware model must reproduce the
	// four-bank evaluator's energies and breakdowns bit for bit (same cache
	// behaviour, same pricing).
	p := energy.DefaultParams()
	prof, _ := workload.ByName("g3fax")
	data := trace.OnlyData(prof.Generate(80_000))
	a := NewTraceEvaluator(data, p)
	b := EngineEvaluator{Eng: engine.New(data, engine.Scalable(cache.FourBank(), p))}
	for _, cfg := range cache.AllConfigs() {
		ra, rb := a.Evaluate(cfg), b.Evaluate(cfg)
		if ra.Energy != rb.Energy || ra.Breakdown != rb.Breakdown {
			t.Errorf("%v: four-bank %g %v vs geometry model %g %v",
				cfg, ra.Energy, ra.Breakdown, rb.Energy, rb.Breakdown)
		}
	}
}

// The §3.4 scalability question the paper leaves as future work: does the
// heuristic stay near-optimal on a larger configuration space? Finding:
// the probe count stays at sizes+lines+assocs+1 (a fifth of the space)
// and most streams stay near-optimal, but conflict-driven workloads whose
// bank-mapping valleys are non-monotone in size can trap the greedy sweep
// far from the optimum — the degradation the paper's authors suspected.
// The test pins the probe bound and the whole outcome: which streams miss
// the optimum, with which pair of configurations, and how many of them
// are more than 25% worse (logged for EXPERIMENTS.md).
func TestHeuristicScalesToLargerCaches(t *testing.T) {
	p := energy.DefaultParams()
	geo := eightBank()
	space := GeometrySpace(geo)
	maxProbes := len(space.Sizes) + len(space.Lines) + len(space.Assocs) + 1
	if maxProbes != 13 {
		t.Fatalf("probe bound %d, want 13", maxProbes)
	}
	// The streams whose heuristic choice is not the exhaustive optimum,
	// keyed by profile and stream: heuristic, then optimum.
	wantMissed := map[string][2]string{
		"jpeg D":     {"4K_1W_32B", "16K_1W_32B"},
		"ucbqsort I": {"8K_1W_16B", "8K_2W_16B_P"},
		"g721 I":     {"32K_1W_16B", "16K_4W_16B_P"},
		"mpeg2 I":    {"8K_1W_32B", "4K_1W_32B"},
		"mpeg2 D":    {"4K_1W_16B", "16K_1W_16B"},
	}

	missed := map[string][2]string{}
	bad := 0
	worst := 1.0
	streams := 0
	for _, prof := range workload.Profiles() {
		accs := prof.Generate(100_000)
		inst, data := trace.Split(accs)
		for i, stream := range [][]trace.Access{inst, data} {
			streams++
			name := prof.Name + " " + "ID"[i:i+1]
			ev := EngineEvaluator{Eng: engine.New(stream, engine.Scalable(geo, p))}
			h := SearchInSpace(ev, PaperOrder, space)
			if h.NumExamined() > maxProbes {
				t.Errorf("%s: examined %d > bound %d", name, h.NumExamined(), maxProbes)
			}
			x := ExhaustiveConfigs(ev, geo.Configs())
			r := h.Best.Energy / x.Best.Energy
			if r > worst {
				worst = r
			}
			if h.Best.Cfg != x.Best.Cfg {
				missed[name] = [2]string{h.Best.Cfg.String(), x.Best.Cfg.String()}
			}
			if r > 1.25 {
				bad++
				t.Logf("degraded: %s heuristic %v is %.0f%% worse than optimal %v",
					name, h.Best.Cfg, 100*(r-1), x.Best.Cfg)
			}
		}
	}
	t.Logf("8-bank space (64 configs, <=%d probes): missed optimum on %d of %d streams, >25%% worse on %d, worst excess %.0f%%",
		maxProbes, len(missed), streams, bad, 100*(worst-1))
	if streams != 38 || bad != 1 {
		t.Errorf("%d streams, %d more than 25%% worse; want 38 and 1", streams, bad)
	}
	if len(missed) != len(wantMissed) {
		t.Errorf("missed the optimum on %d streams, want %d: %v", len(missed), len(wantMissed), missed)
	}
	for name, want := range wantMissed {
		if got, ok := missed[name]; !ok || got != want {
			t.Errorf("%s: heuristic/optimum %v, want %v", name, got, want)
		}
	}
}
