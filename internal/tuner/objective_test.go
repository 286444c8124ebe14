package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func dataStream(t *testing.T, name string, n int) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return trace.OnlyData(prof.Generate(n))
}

// streamPrefix returns the first n accesses of the named profile's data
// stream, or of its instruction stream when inst is set. Every generator
// step emits DataPerStep data references and InstPerStep fetches, so whole
// steps are generated until the chosen side holds n.
func streamPrefix(t *testing.T, name string, n int, inst bool) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	per, keep := prof.DataPerStep, trace.OnlyData
	if inst {
		per, keep = prof.InstPerStep, trace.OnlyInst
	}
	return keep(prof.Generate((n/per + 1) * (prof.InstPerStep + prof.DataPerStep)))[:n]
}

func TestEnergyObjectiveMatchesSearchPaper(t *testing.T) {
	p := energy.DefaultParams()
	ev := NewTraceEvaluator(dataStream(t, "g3fax", 100_000), p)
	a := SearchPaper(ev)
	b := SearchObjective(ev, PaperOrder, DefaultSpace(), EnergyObjective)
	if a.Best.Cfg != b.Best.Cfg || a.NumExamined() != b.NumExamined() {
		t.Errorf("energy objective diverges: %v/%d vs %v/%d",
			b.Best.Cfg, b.NumExamined(), a.Best.Cfg, a.NumExamined())
	}
}

func TestObjectiveResultsCarryTrueEnergy(t *testing.T) {
	p := energy.DefaultParams()
	ev := NewTraceEvaluator(dataStream(t, "adpcm", 80_000), p)
	res := SearchObjective(ev, PaperOrder, DefaultSpace(), EDPObjective)
	// The recorded energies must be genuine joules, not EDP values.
	want := ev.Evaluate(res.Best.Cfg).Energy
	if res.Best.Energy != want {
		t.Errorf("best energy %g, want the true energy %g", res.Best.Energy, want)
	}
	for _, r := range res.Examined {
		if r.Energy != ev.Evaluate(r.Cfg).Energy {
			t.Errorf("examined %v carries objective value, not energy", r.Cfg)
		}
	}
}

func TestEDPFavoursFasterConfigurations(t *testing.T) {
	// On a miss-heavy stream the EDP optimum must not be slower than the
	// energy optimum: trading stall cycles for array energy is exactly
	// what the energy objective does and EDP penalises.
	p := energy.DefaultParams()
	for _, name := range []string{"blit", "mpeg2", "epic"} {
		ev := NewTraceEvaluator(dataStream(t, name, 120_000), p)
		eOpt := ExhaustiveObjective(ev, cache.AllConfigs(), EnergyObjective).Best
		dOpt := ExhaustiveObjective(ev, cache.AllConfigs(), EDPObjective).Best
		if dOpt.Breakdown.Cycles > eOpt.Breakdown.Cycles {
			t.Errorf("%s: EDP optimum %v is slower (%d cycles) than energy optimum %v (%d)",
				name, dOpt.Cfg, dOpt.Breakdown.Cycles, eOpt.Cfg, eOpt.Breakdown.Cycles)
		}
		if dOpt.Energy < eOpt.Energy {
			t.Errorf("%s: EDP optimum has lower energy than the energy optimum", name)
		}
	}
}

func TestDelayCapObjective(t *testing.T) {
	p := energy.DefaultParams()
	ev := NewTraceEvaluator(dataStream(t, "mpeg2", 120_000), p)
	// Baseline: the base cache's cycle count.
	baseline := ev.Evaluate(cache.BaseConfig()).Breakdown.Cycles

	// A generous cap behaves like plain energy minimisation.
	loose := ExhaustiveObjective(ev, cache.AllConfigs(), DelayCapObjective(baseline, 10)).Best
	pure := ExhaustiveObjective(ev, cache.AllConfigs(), EnergyObjective).Best
	if loose.Cfg != pure.Cfg {
		t.Errorf("loose cap chose %v, pure energy chose %v", loose.Cfg, pure.Cfg)
	}

	// A tight cap must be respected whenever any configuration meets it.
	tight := ExhaustiveObjective(ev, cache.AllConfigs(), DelayCapObjective(baseline, 1.02)).Best
	if float64(tight.Breakdown.Cycles) > 1.02*float64(baseline) {
		// Only acceptable if nothing at all meets the cap.
		met := false
		for _, cfg := range cache.AllConfigs() {
			if float64(ev.Evaluate(cfg).Breakdown.Cycles) <= 1.02*float64(baseline) {
				met = true
				break
			}
		}
		if met {
			t.Errorf("tight cap violated: %v at %d cycles (cap %.0f)",
				tight.Cfg, tight.Breakdown.Cycles, 1.02*float64(baseline))
		}
	}
	if tight.Energy < pure.Energy {
		t.Errorf("constrained optimum cheaper than unconstrained")
	}
}
