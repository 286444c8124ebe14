package daemon

import (
	"context"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// twoPhaseStream builds a stream with an abrupt phase change: a cache-friendly
// first phase (small footprint) followed by a thrashing second phase (large
// strided footprint), so the windowed miss rate visibly drifts.
func twoPhaseStream(nA, nB int) []trace.Access {
	accs := make([]trace.Access, 0, nA+nB)
	x := uint32(1)
	for i := 0; i < nA; i++ {
		x = x*1664525 + 1013904223
		kind := trace.DataRead
		if x&7 == 0 {
			kind = trace.DataWrite
		}
		accs = append(accs, trace.Access{Addr: x % 4096, Kind: kind})
	}
	for i := 0; i < nB; i++ {
		accs = append(accs, trace.Access{Addr: uint32(i*64) % (1 << 20), Kind: trace.DataRead})
	}
	return accs
}

func feedAll(t *testing.T, d *Daemon, accs []trace.Access) {
	t.Helper()
	for d.Consumed() < uint64(len(accs)) {
		a := accs[d.Consumed()]
		if err := d.Step(a.Addr, a.IsWrite()); err != nil {
			t.Fatalf("Step at %d: %v", d.Consumed(), err)
		}
	}
}

func TestDaemonRetunesOnPhaseDrift(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)
	d, err := New(Options{Window: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, accs)

	if d.Retunes() == 0 {
		t.Fatalf("no re-tune despite the phase change (events: %+v)", d.Events())
	}
	var settles, retunes int
	for _, e := range d.Events() {
		switch e.Kind {
		case "settle":
			settles++
		case "retune":
			retunes++
		}
	}
	if settles < 2 || retunes < 1 {
		t.Errorf("want >=2 settles and >=1 retune, got %d/%d (events: %+v)", settles, retunes, d.Events())
	}
	// The retune must come after the first settle, in the drifted phase.
	ev := d.Events()
	if ev[0].Kind != "settle" {
		t.Errorf("first event %+v, want the initial settle", ev[0])
	}
}

func TestDaemonWatchdogAbortsStalledSession(t *testing.T) {
	// A window budget far below what the search needs forces the watchdog:
	// the session must be abandoned and the cache parked on SafeConfig.
	prof, _ := workload.ByName("crc")
	_, accs := trace.Split(trace.NewSliceSource(prof.Generate(600_000)))
	d, err := New(Options{Window: 2_000, WatchdogWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, accs)

	var fired bool
	for _, e := range d.Events() {
		if e.Kind == "watchdog" {
			fired = true
			if e.Cfg != tuner.SafeConfig() {
				t.Errorf("watchdog parked the cache on %v, want SafeConfig %v", e.Cfg, tuner.SafeConfig())
			}
		}
	}
	if !fired {
		t.Fatalf("watchdog never fired with a 2-window budget (events: %+v)", d.Events())
	}
	if out := d.Settled(); out == nil || !out.Degraded {
		t.Errorf("watchdog outcome not marked degraded: %+v", out)
	}
}

func TestDaemonDegradedMeterFallsBackSafely(t *testing.T) {
	// Every readout comes back all-zero (a wedged counter latch): the
	// re-measure/degrade policy must settle the cache on SafeConfig with
	// the outcome marked degraded — and keep serving accesses throughout.
	prof, _ := workload.ByName("crc")
	_, accs := trace.Split(trace.NewSliceSource(prof.Generate(600_000)))
	stuck := func(cfg cache.Config, st cache.Stats) cache.Stats { return cache.Stats{} }
	d, err := New(Options{Window: 2_000, Meter: stuck})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, accs)

	out := d.Settled()
	if out == nil {
		t.Fatal("session never settled under a stuck meter")
	}
	if !out.Degraded || out.Cfg != tuner.SafeConfig() {
		t.Errorf("stuck-meter outcome %+v, want degraded on SafeConfig %v", out, tuner.SafeConfig())
	}
	if d.Config() != tuner.SafeConfig() {
		t.Errorf("cache left on %v, want SafeConfig", d.Config())
	}
}

// TestDaemonGracefulShutdownResumes: a context-cancelled Run persists its
// final boundary snapshot, and the next daemon continues to the identical
// outcome as an uninterrupted run.
func TestDaemonGracefulShutdownResumes(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)
	dir := t.TempDir()

	baseline, err := New(Options{Window: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, baseline, accs)

	// First life: cancel partway through via a source that trips the
	// context after ~60k accesses.
	ctx, cancel := context.WithCancel(context.Background())
	d, err := New(Options{Window: 2_000, Dir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	src := trace.NewFilter(trace.NewSliceSource(accs), func(trace.Access) bool {
		n++
		if n == 60_000 {
			cancel()
		}
		return true
	})
	if err := d.Run(ctx, src); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	stopped := d.Consumed()
	if stopped == 0 || stopped >= uint64(len(accs)) {
		t.Fatalf("first life consumed %d accesses", stopped)
	}

	// Second life: must recover at (or just behind) the stop point — a
	// graceful shutdown persists the last boundary, so no more than one
	// window plus its warmup may be lost — then finish the stream.
	d2, err := New(Options{Window: 2_000, Dir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Recovered() {
		t.Fatal("second life did not recover from the checkpoint")
	}
	if lost := stopped - d2.Consumed(); lost > 2_000+2_000/4 {
		t.Errorf("graceful shutdown lost %d accesses; at most one partial window may be redone", lost)
	}
	if err := d2.Run(context.Background(), trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}

	be, ce := baseline.Events(), d2.Events()
	if len(be) != len(ce) {
		t.Fatalf("baseline made %d decisions, resumed run %d:\n%+v\n%+v", len(be), len(ce), be, ce)
	}
	for i := range be {
		if be[i] != ce[i] {
			t.Errorf("decision %d: baseline %+v, resumed %+v", i, be[i], ce[i])
		}
	}
	if baseline.Config() != d2.Config() {
		t.Errorf("final config %v, want %v", d2.Config(), baseline.Config())
	}
}
