package tuner

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/faults"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func dataTrace(t *testing.T, name string, n int) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	data := trace.OnlyData(prof.Generate(n))
	return data
}

func TestPlausible(t *testing.T) {
	good := EvalResult{
		Cfg:    cache.BaseConfig(),
		Energy: 1.0,
		Stats:  cache.Stats{Accesses: 100, Hits: 90, Misses: 10, Writes: 20},
	}
	if err := Plausible(good); err != nil {
		t.Errorf("consistent reading rejected: %v", err)
	}
	// Synthetic evaluators (tests, the FSMD model) price configurations
	// without counters; they must pass.
	if err := Plausible(EvalResult{Cfg: cache.BaseConfig(), Energy: 5}); err != nil {
		t.Errorf("counter-free synthetic reading rejected: %v", err)
	}

	bad := []struct {
		name string
		r    EvalResult
	}{
		{"replay error", EvalResult{Cfg: good.Cfg, Energy: 1, Stats: good.Stats, Err: errors.New("boom")}},
		{"NaN energy", EvalResult{Cfg: good.Cfg, Energy: math.NaN(), Stats: good.Stats}},
		{"infinite energy", EvalResult{Cfg: good.Cfg, Energy: math.Inf(1), Stats: good.Stats}},
		{"negative energy", EvalResult{Cfg: good.Cfg, Energy: -1, Stats: good.Stats}},
		{"stuck counters", EvalResult{Cfg: good.Cfg, Energy: 0}},
		{"zero accesses", EvalResult{Cfg: good.Cfg, Energy: 1, Stats: cache.Stats{Misses: 5}}},
		{"hits+misses mismatch", EvalResult{Cfg: good.Cfg, Energy: 1,
			Stats: cache.Stats{Accesses: 100, Hits: 50, Misses: 10}}},
		{"writes exceed accesses", EvalResult{Cfg: good.Cfg, Energy: 1,
			Stats: cache.Stats{Accesses: 100, Hits: 90, Misses: 10, Writes: 200}}},
	}
	for _, tc := range bad {
		if Plausible(tc.r) == nil {
			t.Errorf("%s accepted as plausible", tc.name)
		}
	}
}

// TestOnlineDegradesGracefullyUnderStuckCounters is the acceptance-pinned
// graceful-degradation path: with the counter readout wedged (every window
// reads all zeros), the online tuner abandons the search, settles the live
// cache on SafeConfig, and keeps serving accesses — no panic, no wedged
// session.
func TestOnlineDegradesGracefullyUnderStuckCounters(t *testing.T) {
	c := cache.MustConfigurable(cache.MinConfig())
	stuck := func(cache.Config, cache.Stats) cache.Stats { return cache.Stats{} }
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 5000, Meter: stuck})
	data := streamPrefix(t, "crc", 200_000+20_000, false)
	i := 0
	for ; i < 200_000 && !o.Done(); i++ {
		o.Access(data[i].Addr, data[i].IsWrite())
	}
	if !o.Done() {
		t.Fatal("session did not settle under stuck counters")
	}
	if !o.Degraded() {
		t.Fatal("session trusted all-zero readings instead of degrading")
	}
	res := o.Result()
	if res.Fault == nil {
		t.Error("degraded result carries no fault")
	}
	if res.Best.Cfg != SafeConfig() {
		t.Errorf("degraded session settled on %v, want SafeConfig %v", res.Best.Cfg, SafeConfig())
	}
	if o.Cache().Config() != SafeConfig() {
		t.Errorf("live cache is at %v, want SafeConfig %v", o.Cache().Config(), SafeConfig())
	}
	// The cache must keep working as a plain cache after degradation.
	for _, a := range data[i : i+20_000] {
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Cache().Config() != SafeConfig() {
		t.Error("configuration drifted after degradation")
	}
}

// TestOnlineMeterTransientFaultRemeasures pins the middle step of the
// policy: a single glitched window is re-measured over the next window and
// the session completes without degrading.
func TestOnlineMeterTransientFaultRemeasures(t *testing.T) {
	c := cache.MustConfigurable(cache.MinConfig())
	windows := 0
	glitchOnce := func(cfg cache.Config, st cache.Stats) cache.Stats {
		windows++
		if windows == 1 {
			return cache.Stats{} // first window's readout never latches
		}
		return st
	}
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 5000, Meter: glitchOnce})
	for _, a := range streamPrefix(t, "crc", 500_000, false) {
		if o.Done() {
			break
		}
		o.Access(a.Addr, a.IsWrite())
	}
	if !o.Done() {
		t.Fatal("session did not complete")
	}
	if o.Degraded() {
		t.Fatalf("one transient glitch degraded the session: %v", o.Result().Fault)
	}
	if windows < 3 {
		t.Errorf("measured %d windows; the glitched window should have been re-measured", windows)
	}
}

// TestOnlineIdentityMeterChangesNothing pins that the meter hook is a pure
// observation point: an identity meter yields a bit-identical session.
func TestOnlineIdentityMeterChangesNothing(t *testing.T) {
	run := func(meter Meter) SearchResult {
		c := cache.MustConfigurable(cache.MinConfig())
		o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 4000, Meter: meter})
		for _, a := range streamPrefix(t, "adpcm", 500_000, false) {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
		}
		if !o.Done() {
			t.Fatal("session did not complete")
		}
		return o.Result()
	}
	plain := run(nil)
	identity := run(func(_ cache.Config, st cache.Stats) cache.Stats { return st })
	if !reflect.DeepEqual(plain, identity) {
		t.Error("identity meter changed the session outcome")
	}
}

// TestOfflineSearchDegradesUnderPersistentStuck wires the fault injector
// through a real replay engine: with the counter latch permanently stuck,
// the re-measure (a genuinely fresh replay via Remeasurer) also fails and
// the search falls back to SafeConfig.
func TestOfflineSearchDegradesUnderPersistentStuck(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataTrace(t, "crc", 20_000)
	mf := &faults.Measurement{Seed: 5, StuckRate: 1}
	ev := EngineEvaluator{Eng: engine.New(accs, faults.Wrap(engine.Configurable(p), mf))}
	res := SearchPaper(ev)
	if !res.Degraded {
		t.Fatal("search trusted permanently stuck counters")
	}
	if res.Best.Cfg != SafeConfig() {
		t.Errorf("degraded search chose %v, want SafeConfig %v", res.Best.Cfg, SafeConfig())
	}
	if res.Fault == nil {
		t.Error("degraded search carries no fault")
	}
}

// flakyOnce returns garbage the first time each configuration is measured
// and delegates from then on — every reading heals on its re-measure.
type flakyOnce struct {
	inner  Evaluator
	failed map[cache.Config]bool
}

func (f *flakyOnce) Evaluate(cfg cache.Config) EvalResult {
	if !f.failed[cfg] {
		f.failed[cfg] = true
		return EvalResult{Cfg: cfg} // all-zero stuck reading
	}
	return f.inner.Evaluate(cfg)
}

// TestSearchRemeasureClearsTransientFault pins that one implausible reading
// per configuration costs a re-measure, not the search: the outcome matches
// the clean search exactly.
func TestSearchRemeasureClearsTransientFault(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataTrace(t, "adpcm", 30_000)
	clean := SearchPaper(NewTraceEvaluator(accs, p))
	flaky := SearchPaper(&flakyOnce{
		inner:  NewTraceEvaluator(accs, p),
		failed: map[cache.Config]bool{},
	})
	if flaky.Degraded {
		t.Fatalf("transient faults degraded the search: %v", flaky.Fault)
	}
	if !reflect.DeepEqual(clean, flaky) {
		t.Error("search under heal-on-remeasure faults diverged from the clean search")
	}
}

// TestExhaustiveSkipsImplausibleReadings pins that one crashed configuration
// costs one data point, not the sweep — and that an entirely failed sweep
// degrades to SafeConfig instead of electing garbage.
func TestExhaustiveSkipsImplausibleReadings(t *testing.T) {
	// Every 2 KB reading fails; the optimum reduction must elect the best
	// surviving configuration (4 KB under a size-proportional cost).
	partial := EvaluatorFunc(func(cfg cache.Config) EvalResult {
		if cfg.SizeBytes == 2048 {
			return EvalResult{Cfg: cfg, Err: errors.New("replay crashed")}
		}
		return EvalResult{Cfg: cfg, Energy: float64(cfg.SizeBytes)}
	})
	res := Exhaustive(partial)
	if res.Degraded {
		t.Fatal("partial failures degraded an exhaustive sweep with survivors")
	}
	if res.Best.Cfg.SizeBytes != 4096 {
		t.Errorf("best = %v, want a 4K config (smallest plausible)", res.Best.Cfg)
	}
	if res.NumExamined() != 27 {
		t.Errorf("examined %d, want all 27 recorded (including failures)", res.NumExamined())
	}

	allBad := EvaluatorFunc(func(cfg cache.Config) EvalResult {
		return EvalResult{Cfg: cfg, Err: errors.New("replay crashed")}
	})
	res = Exhaustive(allBad)
	if !res.Degraded || res.Fault == nil {
		t.Fatal("fully failed sweep did not degrade")
	}
	if res.Best.Cfg != SafeConfig() {
		t.Errorf("fully failed sweep chose %v, want SafeConfig", res.Best.Cfg)
	}
}
