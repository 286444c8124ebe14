package tuner

import (
	"runtime"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func runOnline(t *testing.T, name string, window uint64, budget int) (*Online, *workload.Profile) {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: window})
	src := trace.OnlyData(prof.NewSource())
	for i := 0; i < budget && !o.Done(); i++ {
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	return o, prof
}

func TestOnlineCompletesAndSettles(t *testing.T) {
	o, _ := runOnline(t, "crc", 5000, 500_000)
	if !o.Done() {
		t.Fatal("online tuning did not complete within budget")
	}
	res := o.Result()
	if res.NumExamined() < 2 || res.NumExamined() > 9 {
		t.Errorf("examined %d configurations, want the heuristic's 2-9 range", res.NumExamined())
	}
	if o.Cache().Config() != res.Best.Cfg {
		t.Errorf("cache settled on %v, search chose %v", o.Cache().Config(), res.Best.Cfg)
	}
}

func TestOnlineNeverFullFlushes(t *testing.T) {
	// The session may write back a handful of dirty lines when a
	// rejected larger size is retreated from, but never a full flush
	// (512 lines).
	o, _ := runOnline(t, "blit", 4000, 500_000)
	if !o.Done() {
		t.Fatal("did not complete")
	}
	if wb := o.SettleWritebacks(); wb > 512 {
		t.Errorf("settle writebacks = %d, comparable to a full flush", wb)
	}
}

func TestOnlineInstructionStreamNeedsNoWritebacks(t *testing.T) {
	prof, _ := workload.ByName("g721")
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 4000})
	src := trace.OnlyInst(prof.NewSource())
	for i := 0; i < 500_000 && !o.Done(); i++ {
		a, _ := src.Next()
		o.Access(a.Addr, false)
	}
	if !o.Done() {
		t.Fatal("did not complete")
	}
	if wb := o.SettleWritebacks(); wb != 0 {
		t.Errorf("instruction-cache tuning wrote back %d lines; fetches are never dirty", wb)
	}
}

func TestOnlineChoiceIsNearOfflineQuality(t *testing.T) {
	// The online tuner measures successive warm windows rather than the
	// whole trace, so its choice can legitimately differ from the
	// offline search's — but the configuration it settles on must be
	// close in whole-trace energy to the offline optimum.
	for _, name := range []string{"crc", "bcnt", "adpcm", "blit"} {
		prof, _ := workload.ByName(name)
		p := energy.DefaultParams()

		steady := prof.Generate(1_200_000)[prof.InitAccesses:]
		_, data := trace.Split(trace.NewSliceSource(steady))
		ev := NewTraceEvaluator(data, p)
		offline := SearchPaper(ev)

		c := cache.MustConfigurable(cache.MinConfig())
		o := NewOnline(c, p, OnlineOptions{Window: 10_000})
		for _, a := range data {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
		}
		if !o.Done() {
			t.Fatalf("%s: online tuning did not complete", name)
		}
		got := o.Result().Best.Cfg
		ratio := ev.Evaluate(got).Energy / offline.Best.Energy
		if ratio > 1.30 {
			t.Errorf("%s: online choice %v is %.0f%% worse than offline %v",
				name, got, (ratio-1)*100, offline.Best.Cfg)
		}
	}
}

func TestOnlineReconfigurationCountMatchesExamined(t *testing.T) {
	o, _ := runOnline(t, "fir", 3000, 500_000)
	if !o.Done() {
		t.Fatal("did not complete")
	}
	// Each examined configuration required at most one reconfiguration
	// (the first window runs on the starting configuration), plus the
	// final settle.
	// Reconfigurations are counted in the cache stats, which reset per
	// window; just sanity-check the session ran multiple windows.
	if o.Result().NumExamined() < 2 {
		t.Errorf("examined %d, want >= 2", o.Result().NumExamined())
	}
}

func TestOnlineAbort(t *testing.T) {
	prof, _ := workload.ByName("fir")
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 5000})
	src := trace.OnlyData(prof.NewSource())
	for i := 0; i < 7000; i++ { // mid-session
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Done() {
		t.Skip("session finished before abort point")
	}
	o.Abort()
	if !o.Aborted() || o.Done() {
		t.Fatalf("aborted=%v done=%v after Abort", o.Aborted(), o.Done())
	}
	// The cache keeps working as a plain cache.
	cfg := o.Cache().Config()
	for i := 0; i < 5000; i++ {
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Cache().Config() != cfg {
		t.Error("configuration changed after abort")
	}
	o.Abort() // idempotent
}

// TestOnlineSpawnsNoGoroutines pins that a session is a plain value: creating
// many sessions mid-search and dropping them without Abort leaves no
// goroutine behind.
func TestOnlineSpawnsNoGoroutines(t *testing.T) {
	accs := dataStream(t, "crc", 20_000)[:3_000]
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		o := NewOnline(cache.MustConfigurable(cache.MinConfig()), energy.DefaultParams(), OnlineOptions{Window: 1_000})
		for _, a := range accs {
			o.Access(a.Addr, a.IsWrite())
		}
		if o.Done() || o.CompletedWindows() == 0 {
			t.Fatalf("session %d is not mid-search (%d windows, done %v)", i, o.CompletedWindows(), o.Done())
		}
	}
	// Only growth counts: a goroutine an earlier test left exiting may
	// finish meanwhile, while 100 leaked sessions would add 100.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 dropped sessions raised the goroutine count from %d to %d", before, after)
	}
}
