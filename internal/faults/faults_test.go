package faults

import (
	"bytes"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func dataStream(t testing.TB, name string, n int) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(n)))
	return data
}

// TestWrappedModelsNeverFuse pins that a fault-armed model replays a batch
// one configuration at a time: a default engine serves batches from one
// fused pass, which can realise neither per-(configuration, reading)
// injection nor a stuck-off bank's degraded configuration.
func TestWrappedModelsNeverFuse(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 5_000)
	configs := cache.AllConfigs()
	for name, m := range map[string]engine.Model[cache.Config]{
		"measurement": Wrap(engine.Configurable(p), &Measurement{Seed: 42}),
		"stuck-off":   StructuralPlan{StuckOff: 1, StuckOn: -1}.Wrap(engine.Configurable(p), p),
	} {
		e := engine.New(accs, m)
		e.EvaluateAll(configs, 4)
		if got := e.Counters().MemoMisses.Load(); got != uint64(len(configs)) {
			t.Errorf("%s: batch of %d configurations led %d replays, want one each", name, len(configs), got)
		}
	}
}

// TestInjectorsAtRateZeroAreIdentity is the pass-through property: every
// injector family at rate zero (even with a non-zero seed) is bit-identical
// to no injector at all.
func TestInjectorsAtRateZeroAreIdentity(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 20_000)

	if got := (Trace{Seed: 42}).Apply(accs); !reflect.DeepEqual(got, accs) {
		t.Error("Trace at rate 0 altered the stream")
	}

	configs := cache.AllConfigs()
	clean := engine.Sweep(accs, engine.Configurable(p), configs, 4)

	mf := &Measurement{Seed: 42}
	faulted := engine.Sweep(accs, Wrap(engine.Configurable(p), mf), configs, 4)
	if !reflect.DeepEqual(clean, faulted) {
		t.Error("Measurement at rate 0 altered sweep results")
	}

	plan := Structural{Seed: 42}.Plan()
	if plan != Healthy() {
		t.Fatalf("Structural at rate 0 planned a defect: %+v", plan)
	}
	structural := engine.Sweep(accs, plan.Wrap(engine.Configurable(p), p), configs, 4)
	if !reflect.DeepEqual(clean, structural) {
		t.Error("healthy StructuralPlan altered sweep results")
	}

	var buf bytes.Buffer
	if n, err := CorruptDinero(&buf, accs[:500], 0, 42); err != nil || n != 0 {
		t.Fatalf("CorruptDinero rate 0: n=%d err=%v", n, err)
	}
	got, err := trace.ReadDinero(&buf)
	if err != nil || !reflect.DeepEqual(got, accs[:500]) {
		t.Errorf("CorruptDinero rate 0 is not a clean din stream: %v", err)
	}
}

// TestFaultedRunsReproducibleAcrossSeedAndWorkers pins determinism: the same
// seed reproduces the same faulted outputs bit for bit, a different seed
// diverges, and a faulted sweep is identical at any worker count.
func TestFaultedRunsReproducibleAcrossSeedAndWorkers(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "adpcm", 20_000)

	tf := Trace{Seed: 7, BitFlipRate: 0.01, DropRate: 0.01, DupRate: 0.01}
	a1, a2 := tf.Apply(accs), tf.Apply(accs)
	if !reflect.DeepEqual(a1, a2) {
		t.Error("Trace injector is not reproducible for a fixed seed")
	}
	if reflect.DeepEqual(a1, accs) {
		t.Error("Trace injector at 1% rates left a 20k stream untouched")
	}
	if other := (Trace{Seed: 8, BitFlipRate: 0.01, DropRate: 0.01, DupRate: 0.01}).Apply(accs); reflect.DeepEqual(a1, other) {
		t.Error("different seeds produced identical faulted streams")
	}

	configs := cache.AllConfigs()
	mf := &Measurement{Seed: 7, NoiseRate: 0.3, StuckRate: 0.1, SaturateBits: 14}
	sweep := func(workers int) []engine.Result[cache.Config] {
		return engine.Sweep(accs, Wrap(engine.Configurable(p), mf), configs, workers)
	}
	serial, parallel := sweep(1), sweep(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("faulted sweep diverged across worker counts")
	}
	cleanSweep := engine.Sweep(accs, engine.Configurable(p), configs, 4)
	if reflect.DeepEqual(serial, cleanSweep) {
		t.Error("measurement faults at 30%/10% rates altered nothing")
	}

	var b1, b2 bytes.Buffer
	n1, _ := CorruptDinero(&b1, accs[:2000], 0.05, 7)
	n2, _ := CorruptDinero(&b2, accs[:2000], 0.05, 7)
	if n1 != n2 || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("CorruptDinero is not reproducible for a fixed seed")
	}
	if n1 == 0 {
		t.Error("CorruptDinero at 5% corrupted nothing over 2000 records")
	}
}

// TestStuckCountersYieldImplausibleReadings pins that a stuck counter latch
// produces the zero-access reading the tuner's plausibility check rejects.
func TestStuckCountersYieldImplausibleReadings(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 5_000)
	mf := &Measurement{Seed: 3, StuckRate: 1}
	r := engine.New(accs, Wrap(engine.Configurable(p), mf)).Evaluate(cache.BaseConfig())
	if r.Err != nil {
		t.Fatalf("stuck counter should read, not crash: %v", r.Err)
	}
	if r.Stats.Accesses != 0 {
		t.Errorf("stuck counter read %d accesses, want 0", r.Stats.Accesses)
	}
}

// TestCrashFaultsAreTransientAcrossAttempts pins that a crash fault is
// drawn per attempt: with retry enabled the engine can recover a reading
// from a configuration whose first replay crashed.
func TestCrashFaultsAreTransientAcrossAttempts(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 5_000)
	// A 60% crash rate crashes many first attempts but is very unlikely
	// to crash 5 attempts in a row for all 27 configurations.
	mf := &Measurement{Seed: 11, CrashRate: 0.6}
	e := engine.New(accs, Wrap(engine.Configurable(p), mf))
	e.Retry = engine.RetryPolicy{Attempts: 5}
	results := e.EvaluateAll(cache.AllConfigs(), 4)
	recovered := 0
	for _, r := range results {
		if r.Err == nil && r.Stats.Accesses > 0 {
			recovered++
		}
	}
	if recovered < len(results)/2 {
		t.Errorf("only %d/%d configurations recovered under retry", recovered, len(results))
	}
}

// TestDegradeAlwaysRealisable pins that every stuck-off degradation of every
// valid configuration is itself a valid configuration.
func TestDegradeAlwaysRealisable(t *testing.T) {
	for bank := 0; bank < cache.NumBanks; bank++ {
		plan := StructuralPlan{StuckOff: bank, StuckOn: -1}
		for _, cfg := range cache.AllConfigs() {
			d := plan.Degrade(cfg)
			if err := d.Validate(); err != nil {
				t.Errorf("Degrade(%v) with bank %d stuck off = %v: %v", cfg, bank, d, err)
			}
			if bank >= cfg.ActiveBanks() && d != cfg {
				t.Errorf("unmapped dead bank %d changed %v to %v", bank, cfg, d)
			}
			if bank < cfg.ActiveBanks() && d.SizeBytes >= cfg.SizeBytes && cfg.SizeBytes > cache.BankBytes {
				t.Errorf("dead active bank %d did not shrink %v (got %v)", bank, cfg, d)
			}
		}
	}
}

// TestStuckOnBankChargesLeakage pins that a stuck-on bank inflates only the
// static energy, and only for configurations that tried to power it down.
func TestStuckOnBankChargesLeakage(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 10_000)
	plan := StructuralPlan{StuckOff: -1, StuckOn: 3} // bank 3 cannot power off
	faulted := engine.New(accs, plan.Wrap(engine.Configurable(p), p))
	clean := engine.New(accs, engine.Configurable(p))

	small := cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 16}
	fr, cr := faulted.Evaluate(small), clean.Evaluate(small)
	if fr.Energy <= cr.Energy {
		t.Errorf("stuck-on bank did not cost the 2K config: %v vs %v", fr.Energy, cr.Energy)
	}
	if fr.Breakdown.Static <= cr.Breakdown.Static {
		t.Error("stuck-on cost did not land in the static term")
	}
	if fr.Stats != cr.Stats {
		t.Error("stuck-on bank must not change behaviour counters")
	}

	full := cache.BaseConfig() // all four banks active: nothing to power down
	if fr, cr := faulted.Evaluate(full), clean.Evaluate(full); fr.Energy != cr.Energy {
		t.Errorf("stuck-on bank charged a full-size config: %v vs %v", fr.Energy, cr.Energy)
	}
}
