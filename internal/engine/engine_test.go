package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
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

// TestParallelSweepBitIdenticalToSerial is the determinism property test:
// for every configuration of the default 27-configuration space, a parallel
// sweep returns exactly the serial replay's energy, breakdown and stats —
// bit for bit — on several workload profiles.
func TestParallelSweepBitIdenticalToSerial(t *testing.T) {
	p := energy.DefaultParams()
	configs := cache.AllConfigs()
	if len(configs) != 27 {
		t.Fatalf("default space has %d configs, want 27", len(configs))
	}
	for _, name := range []string{"crc", "adpcm", "mpeg2"} {
		data := dataStream(t, name, 40_000)
		// Fresh engines so the parallel run cannot ride the serial
		// run's memo.
		serial := New(data, Configurable(p)).EvaluateAll(configs, 1)
		parallel := New(data, Configurable(p)).EvaluateAll(configs, 8)
		if len(serial) != len(configs) || len(parallel) != len(configs) {
			t.Fatalf("%s: result lengths %d/%d, want %d", name, len(serial), len(parallel), len(configs))
		}
		for i := range serial {
			if serial[i].Cfg != configs[i] {
				t.Errorf("%s: result %d is %v, want input order %v", name, i, serial[i].Cfg, configs[i])
			}
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("%s %v: parallel result diverged from serial:\n serial   %+v\n parallel %+v",
					name, configs[i], serial[i], parallel[i])
			}
		}
	}
}

// TestEngineMemoisesAndSingleflights pins that a configuration is replayed
// exactly once no matter how many goroutines request it.
func TestEngineMemoisesAndSingleflights(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 20_000)
	var builds atomic.Int64
	m := Configurable(p)
	inner := m.Build
	m.Build = func(cfg cache.Config) Simulator {
		builds.Add(1)
		return inner(cfg)
	}
	e := New(data, m, WithReferenceSim()) // the instrumented reference factory must be the one used
	cfg := cache.BaseConfig()
	const goroutines = 16
	results := make([]Result[cache.Config], goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = e.Evaluate(cfg)
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d goroutines caused %d replays, want 1", goroutines, n)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(results[0], results[g]) {
			t.Fatalf("goroutine %d saw a different result", g)
		}
	}
	if e.Evaluate(cfg); builds.Load() != 1 {
		t.Error("memoised re-evaluation replayed again")
	}
}

// TestDrainChargedExactlyOnce pins the engine's drain accounting against a
// hand replay: stats writebacks = live writebacks + resident dirty lines,
// and NoDrain leaves the raw counters untouched.
func TestDrainChargedExactlyOnce(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "ucbqsort", 30_000)
	cfg := cache.Config{SizeBytes: 8192, Ways: 2, LineBytes: 32}

	c := cache.MustConfigurable(cfg)
	for _, a := range data {
		c.Access(a.Addr, a.IsWrite())
	}
	raw := c.Stats()
	dirty := uint64(c.DirtyLines())
	if dirty == 0 {
		t.Fatal("test stream left no dirty lines; drain not exercised")
	}

	drained := New(data, Configurable(p)).Evaluate(cfg)
	if got, want := drained.Stats.Writebacks, raw.Writebacks+dirty; got != want {
		t.Errorf("drained writebacks = %d, want live %d + dirty %d", got, raw.Writebacks, dirty)
	}
	wantB := p.Evaluate(cfg, drained.Stats)
	if drained.Energy != wantB.Total() {
		t.Errorf("energy %v does not match pricing the drained stats (%v)", drained.Energy, wantB.Total())
	}

	m := Configurable(p)
	m.NoDrain = true
	plain := New(data, m).Evaluate(cfg)
	if plain.Stats != raw {
		t.Errorf("NoDrain stats diverged from a hand replay:\n got  %+v\n want %+v", plain.Stats, raw)
	}
}

// TestGenericModelMatchesHandReplay pins the generic model (Figure 2 path)
// against the hand-rolled loop it replaced.
func TestGenericModelMatchesHandReplay(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 30_000)
	cfg := cache.GenericConfig{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32}

	g := cache.MustGeneric(cfg)
	for _, a := range data {
		g.Access(a.Addr, a.IsWrite())
	}
	want := p.GenericEvaluate(cfg, g.Stats())

	m := Generic(p)
	m.NoDrain = true
	got := New(data, m).Evaluate(cfg)
	if got.Breakdown != want {
		t.Errorf("engine breakdown %+v, hand replay %+v", got.Breakdown, want)
	}
}

// TestParallelPreservesInputOrder pins the pool's ordering and bounds.
func TestParallelPreservesInputOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got := Parallel(17, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out := Parallel(0, 4, func(i int) int { return i }); len(out) != 0 {
		t.Errorf("n=0 returned %d results", len(out))
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must resolve non-positive counts to at least 1")
	}
	if Workers(5) != 5 {
		t.Error("Workers must respect an explicit count")
	}
}
