package tuner

import (
	"reflect"
	"sync"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// TestEvaluatorsSafeUnderConcurrentEvaluate exercises the memoisation of
// both trace-replay evaluators from many goroutines at once — run under
// `go test -race` this pins the engine rebase's concurrency guarantee (the
// seed's map-based memo was unsafe here) — and checks the shared evaluators
// still agree with fresh serial ones afterwards.
func TestEvaluatorsSafeUnderConcurrentEvaluate(t *testing.T) {
	p := energy.DefaultParams()
	prof, _ := workload.ByName("ucbqsort")
	data := trace.OnlyData(prof.Generate(20_000))
	geo := cache.FourBank()

	ev := NewTraceEvaluator(data, p)
	sev := EngineEvaluator{Eng: engine.New(data, engine.Scalable(geo, p))}
	configs := cache.AllConfigs()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Start each goroutine at a different offset so some
			// collide on in-flight configurations and others race
			// ahead.
			for i := range configs {
				cfg := configs[(i+g*3)%len(configs)]
				ev.Evaluate(cfg)
				sev.Evaluate(cfg)
			}
			// Concurrent searches share the same memo.
			SearchPaper(ev)
			ExhaustiveWorkers(sev, configs, 4)
		}(g)
	}
	wg.Wait()

	fresh := NewTraceEvaluator(data, p)
	sfresh := EngineEvaluator{Eng: engine.New(data, engine.Scalable(geo, p))}
	for _, cfg := range configs {
		if got, want := ev.Evaluate(cfg), fresh.Evaluate(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("TraceEvaluator %v drifted under concurrency: %+v vs %+v", cfg, got, want)
		}
		if got, want := sev.Evaluate(cfg), sfresh.Evaluate(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("geometry EngineEvaluator %v drifted under concurrency: %+v vs %+v", cfg, got, want)
		}
	}
}

// TestExhaustiveWorkersMatchesSerial pins that the parallel exhaustive
// sweep returns the serial sweep's SearchResult bit for bit, through the
// public tuner API (the engine-level property test covers the raw results).
func TestExhaustiveWorkersMatchesSerial(t *testing.T) {
	p := energy.DefaultParams()
	prof, _ := workload.ByName("g721")
	inst := trace.OnlyInst(prof.Generate(20_000))
	configs := cache.AllConfigs()

	serial := ExhaustiveWorkers(NewTraceEvaluator(inst, p), configs, 1)
	parallel := ExhaustiveWorkers(NewTraceEvaluator(inst, p), configs, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel exhaustive sweep diverged from serial:\nbest %v vs %v", parallel.Best.Cfg, serial.Best.Cfg)
	}
	if got := Exhaustive(NewTraceEvaluator(inst, p)); !reflect.DeepEqual(got, serial) {
		t.Errorf("Exhaustive (default workers) diverged from serial")
	}
}
