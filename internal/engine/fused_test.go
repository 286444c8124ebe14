package engine

import (
	"reflect"
	"sync"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// skewedFused wraps the fused kernel and inflates every configuration's
// reported misses, standing in for a fused pass whose results differ from
// the per-configuration kernels — so a result shows which kernel measured it.
type skewedFused struct{ FusedReplayer[cache.Config] }

func (s skewedFused) StatsOf(cfg cache.Config) cache.Stats {
	st := s.FusedReplayer.StatsOf(cfg)
	st.Misses += 1_000_000
	return st
}

// TestMemoKeySeparatesFusedKernel pins that the fused pass serves exactly
// the calls its engine's construction selects it for: a default engine's
// batch request, never its single evaluations, and nothing on an engine
// pinned WithFastSim or WithReferenceSim; WithFusedSweep fuses single
// evaluations too.
func TestMemoKeySeparatesFusedKernel(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	cfg := cache.BaseConfig()
	all := cache.AllConfigs()

	m := Configurable(p)
	inner := m.FusedBuild
	m.FusedBuild = func() FusedReplayer[cache.Config] { return skewedFused{inner()} }
	ref := New(data, Configurable(p), WithReferenceSim()).Evaluate(cfg)
	skewed := func(r Result[cache.Config]) bool { return r.Stats.Misses >= 1_000_000 }

	if r := New(data, m).Evaluate(cfg); skewed(r) || r.Stats != ref.Stats {
		t.Errorf("default engine's single Evaluate measured %+v, want the per-config kernels' %+v", r.Stats, ref.Stats)
	}
	if r := New(data, m, WithFusedSweep()).Evaluate(cfg); !skewed(r) {
		t.Errorf("WithFusedSweep engine's single Evaluate measured %+v, want the fused kernel's", r.Stats)
	}
	e := New(data, m)
	for _, r := range e.EvaluateAll(all, 4) {
		if !skewed(r) {
			t.Fatalf("default engine's EvaluateAll served %v from a per-config kernel", r.Cfg)
		}
	}
	// A later single evaluation of a configuration the batch measured reads
	// the shared memo.
	if r := e.Evaluate(cfg); !skewed(r) || e.Counters().MemoMisses.Load() != 1 {
		t.Errorf("post-batch Evaluate replayed (misses %d) or missed the memo", e.Counters().MemoMisses.Load())
	}
	for _, opt := range []Option{WithFastSim(), WithReferenceSim()} {
		for _, r := range New(data, m, opt).EvaluateAll(all, 4) {
			if skewed(r) {
				t.Fatalf("pinned per-config engine served %v from the fused kernel", r.Cfg)
			}
		}
	}
}

// TestFusedSweepWorkersBitIdentical pins the house invariant on the fused
// path: a full 27-configuration sweep returns bit-identical results at
// workers 1, 2 and 4, and exactly ONE fused pass leads it at any worker
// count (MemoMisses == 1, MemoHits == 26), so hits+misses still equals
// completed evaluations.
func TestFusedSweepWorkersBitIdentical(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 20_000)
	cfgs := cache.AllConfigs()
	var base []Result[cache.Config]
	for _, workers := range []int{1, 2, 4} {
		e := New(data, Configurable(p), WithFusedSweep())
		rs := e.EvaluateAll(cfgs, workers)
		if base == nil {
			base = rs
		} else if !reflect.DeepEqual(base, rs) {
			t.Fatalf("workers=%d: fused sweep results diverged from workers=1", workers)
		}
		hits, misses := e.Counters().MemoHits.Load(), e.Counters().MemoMisses.Load()
		if misses != 1 {
			t.Errorf("workers=%d: %d fused passes led the sweep, want 1", workers, misses)
		}
		if hits+misses != uint64(len(cfgs)) {
			t.Errorf("workers=%d: hits %d + misses %d != %d evaluations", workers, hits, misses, len(cfgs))
		}
	}
}

// TestConcurrentSweepSharedEngine closes a coverage gap: many concurrent
// full sweeps sharing ONE memoised engine on the batch replay path (the
// fast kernels implement BatchReplayer) and on the fused path. Run under
// -race this is the data-race probe for the memo/in-flight tables feeding
// batched replays; the assertions pin result identity across callers and
// the exactly-one-increment-per-evaluation counter invariant.
func TestConcurrentSweepSharedEngine(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 20_000)
	cfgs := cache.AllConfigs()
	for _, tc := range []struct {
		name       string
		opt        Option
		wantMisses uint64
	}{
		{"batch", WithFastSim(), uint64(len(cfgs))},
		{"fused", WithFusedSweep(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(data, Configurable(p), tc.opt)
			const callers = 8
			results := make([][]Result[cache.Config], callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = e.EvaluateAll(cfgs, 4)
				}(i)
			}
			wg.Wait()
			for i := 1; i < callers; i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Fatalf("caller %d saw different sweep results", i)
				}
			}
			hits, misses := e.Counters().MemoHits.Load(), e.Counters().MemoMisses.Load()
			if want := uint64(callers * len(cfgs)); hits+misses != want {
				t.Errorf("hits %d + misses %d != %d evaluations", hits, misses, want)
			}
			if misses != tc.wantMisses {
				t.Errorf("%d replays led, want %d", misses, tc.wantMisses)
			}
		})
	}
}
