package engine

import (
	"sync/atomic"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// TestKernelForcingOptions pins the kernel selection each constructor fixes:
// a default engine replays a single evaluation through the fast kernel and
// serves a cold 27-configuration batch from one fused pass; WithFastSim and
// WithReferenceSim pin one per-configuration kernel for batches too;
// WithFusedSweep fuses single evaluations; a model without FastBuild
// replays through the reference simulator; and a model without FusedBuild
// (a fault-wrapped one) never fuses.
func TestKernelForcingOptions(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 5_000)
	all := cache.AllConfigs()
	n := int64(len(all))

	for _, tc := range []struct {
		name  string
		opts  []Option
		strip func(*Model[cache.Config])
		// Reference builds, fast builds and memo misses for one cold
		// Evaluate, then for one cold EvaluateAll of all 27 configurations.
		single, batch [3]int64
	}{
		{"default", nil, nil, [3]int64{0, 1, 1}, [3]int64{0, 0, 1}},
		{"fast", []Option{WithFastSim()}, nil, [3]int64{0, 1, 1}, [3]int64{0, n, n}},
		{"reference", []Option{WithReferenceSim()}, nil, [3]int64{1, 0, 1}, [3]int64{n, 0, n}},
		{"fused", []Option{WithFusedSweep()}, nil, [3]int64{0, 0, 1}, [3]int64{0, 0, 1}},
		{"no-fastbuild", nil, func(m *Model[cache.Config]) { m.FastBuild = nil }, [3]int64{1, 0, 1}, [3]int64{0, 0, 1}},
		{"no-fusedbuild", nil, func(m *Model[cache.Config]) { m.FusedBuild = nil }, [3]int64{0, 1, 1}, [3]int64{0, n, n}},
		{"no-fusedbuild-fused", []Option{WithFusedSweep()}, func(m *Model[cache.Config]) { m.FusedBuild = nil }, [3]int64{0, 1, 1}, [3]int64{0, n, n}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refBuilds, fastBuilds atomic.Int64
			m := Configurable(p)
			innerRef, innerFast := m.Build, m.FastBuild
			m.Build = func(c cache.Config) Simulator { refBuilds.Add(1); return innerRef(c) }
			m.FastBuild = func(c cache.Config) Simulator { fastBuilds.Add(1); return innerFast(c) }
			if tc.strip != nil {
				tc.strip(&m)
			}
			check := func(what string, e *Engine[cache.Config], want [3]int64) {
				t.Helper()
				got := [3]int64{refBuilds.Load(), fastBuilds.Load(), int64(e.Counters().MemoMisses.Load())}
				if got != want {
					t.Errorf("%s: ref builds, fast builds, memo misses = %v, want %v", what, got, want)
				}
				refBuilds.Store(0)
				fastBuilds.Store(0)
			}
			e := New(data, m, tc.opts...)
			e.Evaluate(cache.BaseConfig())
			check("single Evaluate", e, tc.single)
			e = New(data, m, tc.opts...)
			e.EvaluateAll(all, 4)
			check("batch EvaluateAll", e, tc.batch)
		})
	}
}

// TestGenericNeverFuses pins that the conventional-cache model, which has no
// fused kernel, replays a batch one configuration at a time.
func TestGenericNeverFuses(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 5_000)
	var cfgs []cache.GenericConfig
	for size := 1 << 10; size <= 1<<14; size *= 2 {
		cfgs = append(cfgs, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	e := New(data, Generic(p))
	e.EvaluateAll(cfgs, 4)
	if got := e.Counters().MemoMisses.Load(); got != uint64(len(cfgs)) {
		t.Errorf("Generic batch of %d configurations led %d replays", len(cfgs), got)
	}
}
