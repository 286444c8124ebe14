package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// crashSim panics after a fixed number of accesses — a transient simulator
// fault, deterministic per instance.
type crashSim struct {
	inner Simulator
	after int
	seen  int
}

func (c *crashSim) Access(addr uint32, write bool) cache.AccessResult {
	c.seen++
	if c.seen > c.after {
		panic("injected simulator crash")
	}
	return c.inner.Access(addr, write)
}
func (c *crashSim) Stats() cache.Stats { return c.inner.Stats() }
func (c *crashSim) ResetStats()        { c.inner.ResetStats() }
func (c *crashSim) DirtyLines() int {
	if s, ok := c.inner.(interface{ DirtyLines() int }); ok {
		return s.DirtyLines()
	}
	return 0
}

// TestPanicBecomesPerConfigError pins that a crashing simulator produces a
// per-configuration Err instead of killing the process, and that the other
// configurations of the sweep still measure normally.
func TestPanicBecomesPerConfigError(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	bad := cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}
	m := Configurable(p)
	inner := m.Build
	m.Build = func(cfg cache.Config) Simulator {
		s := inner(cfg)
		if cfg == bad {
			return &crashSim{inner: s, after: 100}
		}
		return s
	}
	e := New(data, m, WithReferenceSim()) // the instrumented reference factory must be the one used
	results, err := e.EvaluateAllCtx(context.Background(), cache.AllConfigs(), 4)
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	var failed, ok int
	for _, r := range results {
		if r.Cfg == bad {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Errorf("crashing config returned err %v, want a panic error", r.Err)
			}
			failed++
			continue
		}
		if r.Err != nil {
			t.Errorf("%v unexpectedly failed: %v", r.Cfg, r.Err)
		}
		if r.Stats.Accesses == 0 {
			t.Errorf("%v measured no accesses", r.Cfg)
		}
		ok++
	}
	if failed != 1 || ok != len(results)-1 {
		t.Errorf("failed=%d ok=%d of %d", failed, ok, len(results))
	}
}

// TestRetryRecoversTransientCrash pins the bounded-retry path: a simulator
// that crashes on its first build but runs clean on the second yields a
// valid measurement when Retry.Attempts >= 2, and an Err when retries are
// exhausted.
func TestRetryRecoversTransientCrash(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	cfg := cache.BaseConfig()

	makeEngine := func(crashes int64) *Engine[cache.Config] {
		var builds atomic.Int64
		m := Configurable(p)
		inner := m.Build
		m.Build = func(c cache.Config) Simulator {
			s := inner(c)
			if builds.Add(1) <= crashes {
				return &crashSim{inner: s, after: 10}
			}
			return s
		}
		return New(data, m, WithReferenceSim()) // the instrumented reference factory must be the one used
	}

	e := makeEngine(1)
	e.Retry = RetryPolicy{Attempts: 3}
	if r := e.Evaluate(cfg); r.Err != nil {
		t.Errorf("retry did not recover a transient crash: %v", r.Err)
	} else if r.Stats.Accesses == 0 {
		t.Error("recovered replay measured nothing")
	}

	e = makeEngine(100)
	e.Retry = RetryPolicy{Attempts: 3}
	if r := e.Evaluate(cfg); r.Err == nil {
		t.Error("permanently crashing simulator produced a measurement")
	}

	// The failed result is memoised: a second Evaluate must not replay.
	e = makeEngine(100)
	r1 := e.Evaluate(cfg)
	r2 := e.Evaluate(cfg)
	if r1.Err == nil || r2.Err == nil {
		t.Error("want memoised failure on both evaluations")
	}
}

// TestEvaluateCtxCancellation pins that a cancelled context stops a replay
// mid-stream, reports the context's error, and does not memoise the partial
// result — a later call with a live context completes the measurement.
func TestEvaluateCtxCancellation(t *testing.T) {
	p := energy.DefaultParams()
	// A stream long enough to hit the in-replay context check.
	data := dataStream(t, "crc", 3*ctxCheckInterval)
	cfg := cache.BaseConfig()
	e := New(data, Configurable(p))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled evaluate returned %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if _, err := e.EvaluateCtx(ctx2, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline evaluate returned %v, want DeadlineExceeded", err)
	}

	r, err := e.EvaluateCtx(context.Background(), cfg)
	if err != nil || r.Err != nil {
		t.Fatalf("post-cancel evaluate failed: %v / %v", err, r.Err)
	}
	if r.Stats.Accesses != uint64(len(data)) {
		t.Errorf("post-cancel replay measured %d accesses, want %d", r.Stats.Accesses, len(data))
	}
}

// TestParallelErrDeterministicError pins that ParallelErr reports the
// lowest-index failure regardless of worker count, and recovers panics.
func TestParallelErrDeterministicError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		out, err := ParallelErr(context.Background(), 20, workers, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, boom
			case 13:
				panic("late panic")
			}
			return i * 2, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want the index-7 failure", workers, err)
		}
		if out[3] != 6 {
			t.Errorf("workers=%d: successful item lost: out[3]=%d", workers, out[3])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParallelErr(ctx, 5, 2, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ParallelErr returned %v", err)
	}
}

// TestReevaluateDropsMemo pins that Reevaluate forces a fresh replay and
// republishes the (identical, for a deterministic model) result.
func TestReevaluateDropsMemo(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	var builds atomic.Int64
	m := Configurable(p)
	inner := m.Build
	m.Build = func(c cache.Config) Simulator {
		builds.Add(1)
		return inner(c)
	}
	e := New(data, m, WithReferenceSim()) // the instrumented reference factory must be the one used
	cfg := cache.BaseConfig()
	first := e.Evaluate(cfg)
	second := e.Reevaluate(cfg)
	if builds.Load() != 2 {
		t.Errorf("Reevaluate replayed %d times total, want 2", builds.Load())
	}
	if first.Energy != second.Energy || first.Stats != second.Stats {
		t.Error("deterministic model diverged across Reevaluate")
	}
}
