package engine

import (
	"bytes"
	"fmt"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func obsTestEngine(n int, opts ...Option) *Engine[cache.Config] {
	prof, ok := workload.ByName("jpeg")
	if !ok {
		prof = workload.Profiles()[0]
	}
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(n)))
	return New(data, Configurable(energy.DefaultParams()), opts...)
}

// Memo hit/miss counters must be exact — every Evaluate lands exactly one
// hit or one miss — and invariant across worker counts: only scheduling may
// change with workers, never what was counted.
func TestMemoCountersExactAndWorkerInvariant(t *testing.T) {
	cfgs := cache.AllConfigs()
	for _, workers := range []int{1, 4, 16} {
		e := obsTestEngine(6_000, WithFastSim())
		e.EvaluateAll(cfgs, workers)
		if got := e.Counters().MemoMisses.Load(); got != uint64(len(cfgs)) {
			t.Fatalf("workers=%d: first sweep made %d misses, want %d", workers, got, len(cfgs))
		}
		if got := e.Counters().MemoHits.Load(); got != 0 {
			t.Fatalf("workers=%d: first sweep made %d hits, want 0", workers, got)
		}
		// Second sweep of the same configurations: all hits, no replays.
		e.EvaluateAll(cfgs, workers)
		if got := e.Counters().MemoMisses.Load(); got != uint64(len(cfgs)) {
			t.Fatalf("workers=%d: second sweep replayed again (%d misses)", workers, got)
		}
		if got := e.Counters().MemoHits.Load(); got != uint64(len(cfgs)) {
			t.Fatalf("workers=%d: second sweep made %d hits, want %d", workers, got, len(cfgs))
		}
	}
}

// Duplicate configurations in one sweep must still count exactly: distinct
// configurations miss once each on the per-configuration kernel, and the
// whole batch misses once on the default engine's fused pass; every other
// request is a hit — whether the duplicate waited on the in-flight lead or
// found the memo later.
func TestMemoCountersWithDuplicates(t *testing.T) {
	base := cache.AllConfigs()[:9]
	var cfgs []cache.Config
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, base...)
	}
	for _, tc := range []struct {
		name       string
		opts       []Option
		wantMisses uint64
	}{
		{"fast", []Option{WithFastSim()}, uint64(len(base))},
		{"default", nil, 1},
	} {
		for _, workers := range []int{1, 4, 16} {
			e := obsTestEngine(4_000, tc.opts...)
			e.EvaluateAll(cfgs, workers)
			hits, misses := e.Counters().MemoHits.Load(), e.Counters().MemoMisses.Load()
			if misses != tc.wantMisses {
				t.Fatalf("%s workers=%d: %d misses, want %d", tc.name, workers, misses, tc.wantMisses)
			}
			if hits+misses != uint64(len(cfgs)) {
				t.Fatalf("%s workers=%d: hits %d + misses %d != %d calls", tc.name, workers, hits, misses, len(cfgs))
			}
		}
	}
}

// Reevaluate drops the memo entry, so it must lead a fresh replay (a miss).
func TestCountersReevaluate(t *testing.T) {
	e := obsTestEngine(4_000)
	cfg := cache.MinConfig()
	e.Evaluate(cfg)
	e.Reevaluate(cfg)
	if got := e.Counters().MemoMisses.Load(); got != 2 {
		t.Fatalf("Reevaluate made %d misses, want 2", got)
	}
}

// A no-op recorder must add zero allocations to the memoised Evaluate hot
// path — including with the metrics registry (replay histogram and counter
// funcs) published, the configuration every long-running daemon uses. This
// is the test gate for the benchmark below.
func TestEvaluateNopRecorderZeroAlloc(t *testing.T) {
	e := obsTestEngine(2_000)
	e.Publish(obs.NewRegistry(), "engine_")
	cfg := cache.MinConfig()
	e.Evaluate(cfg) // populate the memo
	allocs := testing.AllocsPerRun(1000, func() {
		e.Evaluate(cfg)
	})
	if allocs != 0 {
		t.Fatalf("memoised Evaluate with a no-op recorder allocates %v per op", allocs)
	}
}

// The replay histogram itself must be allocation-free on the miss path's
// Observe call (the same budget a disabled recorder gets).
func TestReplayHistogramZeroAllocObserve(t *testing.T) {
	h := obs.NewRegistry().Histogram("engine_replay_seconds")
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3.2e-4) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", allocs)
	}
}

// Telemetry must observe, never perturb: results with recording enabled are
// bit-identical to results without, and the replay events cover exactly the
// configurations that actually replayed.
func TestEngineEventsMatchReplays(t *testing.T) {
	cfgs := cache.AllConfigs()
	silent := obsTestEngine(5_000, WithFastSim())
	want := silent.EvaluateAll(cfgs, 4)

	var buf bytes.Buffer
	loud := obsTestEngine(5_000, WithFastSim())
	loud.Rec = obs.NewJSONL(&buf)
	got := loud.EvaluateAll(cfgs, 4)
	for i := range want {
		if want[i].Energy != got[i].Energy || want[i].Stats != got[i].Stats {
			t.Fatalf("recording changed result %d: %+v vs %+v", i, want[i], got[i])
		}
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	finished := map[string]bool{}
	for _, ev := range evs {
		if ev.Name == "engine.replay.finish" {
			finished[ev.Config] = true
		}
	}
	if len(finished) != len(cfgs) {
		t.Fatalf("got finish events for %d configs, want %d", len(finished), len(cfgs))
	}
	for _, cfg := range cfgs {
		if !finished[fmt.Sprint(cfg)] {
			t.Fatalf("no finish event for %v", cfg)
		}
	}
}

// BenchmarkEvaluateNopRecorder pins the zero-allocation contract under
// `make bench`: the memoised Evaluate path with telemetry disabled, the
// replay histogram registered and the counters published — the full flight
// deck armed, events off.
func BenchmarkEvaluateNopRecorder(b *testing.B) {
	e := obsTestEngine(2_000)
	e.Publish(obs.NewRegistry(), "engine_")
	cfg := cache.MinConfig()
	e.Evaluate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(cfg)
	}
}
