package fastsim_test

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/fastsim"
	"selftune/internal/trace"
)

func benchTrace(n int) []trace.Access {
	return randomTrace(42, n)
}

// TestReplayBatchZeroAllocs pins the acceptance criterion directly: the
// batched inner loop of both kernels performs zero heap allocations per
// replayed block, for every configuration in the space.
func TestReplayBatchZeroAllocs(t *testing.T) {
	accs := benchTrace(4096)
	for _, cfg := range cache.AllConfigs() {
		k := fastsim.Must(cfg)
		if n := testing.AllocsPerRun(10, func() { k.ReplayBatch(accs) }); n != 0 {
			t.Errorf("four-bank kernel %v: %.0f allocs/op in ReplayBatch, want 0", cfg, n)
		}
	}
	// A live kernel serves as allocation-free after in-place
	// reconfiguration, and reconfiguring allocates nothing either.
	live, err := fastsim.NewLive(cache.MinConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := live.Config()
	for _, cfg := range cache.AllConfigs() {
		if n := testing.AllocsPerRun(10, func() {
			if err := live.SetConfig(prev); err != nil {
				t.Fatal(err)
			}
			if err := live.SetConfig(cfg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("live kernel %v -> %v: %.0f allocs/op in SetConfig, want 0", prev, cfg, n)
		}
		if n := testing.AllocsPerRun(10, func() { live.ReplayBatch(accs) }); n != 0 {
			t.Errorf("reconfigured live kernel %v: %.0f allocs/op in ReplayBatch, want 0", cfg, n)
		}
		prev = cfg
	}
	for _, cfg := range []cache.GenericConfig{
		{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32},
		{SizeBytes: 16 << 10, Ways: 4, LineBytes: 32},
	} {
		k := fastsim.MustGeneric(cfg)
		if n := testing.AllocsPerRun(10, func() { k.ReplayBatch(accs) }); n != 0 {
			t.Errorf("generic kernel %v: %.0f allocs/op in ReplayBatch, want 0", cfg, n)
		}
	}
}

// BenchmarkFourBankFast / BenchmarkFourBankReference measure ns/access on
// the base configuration; run with -bench to compare kernels directly.
func BenchmarkFourBankFast(b *testing.B) {
	accs := benchTrace(65536)
	k := fastsim.Must(cache.BaseConfig())
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ReplayBatch(accs)
	}
}

func BenchmarkFourBankReference(b *testing.B) {
	accs := benchTrace(65536)
	c := cache.MustConfigurable(cache.BaseConfig())
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range accs {
			c.Access(a.Addr, a.IsWrite())
		}
	}
}

func BenchmarkGenericFastDM(b *testing.B) {
	accs := benchTrace(65536)
	k := fastsim.MustGeneric(cache.GenericConfig{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32})
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ReplayBatch(accs)
	}
}

func BenchmarkGenericReferenceDM(b *testing.B) {
	accs := benchTrace(65536)
	c := cache.MustGeneric(cache.GenericConfig{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32})
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range accs {
			c.Access(a.Addr, a.IsWrite())
		}
	}
}

// TestFusedReplayZeroAllocs pins the fused inner loop to zero heap
// allocations per replayed block — the columnar path outright, the batch
// path once its scratch columns have grown to the block size.
func TestFusedReplayZeroAllocs(t *testing.T) {
	accs := benchTrace(4096)
	cols := trace.NewColumns(accs)
	k := fastsim.NewFused()
	if n := testing.AllocsPerRun(10, func() { k.ReplayColumns(cols) }); n != 0 {
		t.Errorf("fused kernel: %.0f allocs/op in ReplayColumns, want 0", n)
	}
	kb := fastsim.NewFused()
	kb.ReplayBatch(accs) // grow the scratch columns once
	if n := testing.AllocsPerRun(10, func() { kb.ReplayBatch(accs) }); n != 0 {
		t.Errorf("fused kernel: %.0f allocs/op in ReplayBatch, want 0", n)
	}
	for _, cfg := range cache.AllConfigs() {
		if n := testing.AllocsPerRun(10, func() { _ = k.StatsOf(cfg); _ = k.DirtyLinesOf(cfg) }); n != 0 {
			t.Errorf("fused kernel %v: %.0f allocs/op in readout, want 0", cfg, n)
		}
	}
}

// BenchmarkFusedSweep measures the fused kernel's full-sweep cost: one pass
// evaluating all 27 configurations. Bytes/op is accesses replayed, so
// ns/access here divides by 27 configurations — compare against
// BenchmarkPerConfigSweep, the same sweep through 27 per-config fast
// kernels.
func BenchmarkFusedSweep(b *testing.B) {
	accs := benchTrace(65536)
	cols := trace.NewColumns(accs)
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fastsim.NewFused()
		k.ReplayColumns(cols)
	}
}

func BenchmarkPerConfigSweep(b *testing.B) {
	accs := benchTrace(65536)
	cfgs := cache.AllConfigs()
	b.SetBytes(int64(len(accs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			k := fastsim.Must(cfg)
			k.ReplayBatch(accs)
		}
	}
}
