package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
)

// runToSettle feeds accs until the session settles, returning how many
// accesses it consumed.
func runToSettle(t *testing.T, o *Online, accs []trace.Access) int {
	t.Helper()
	for i, a := range accs {
		if o.Done() {
			return i
		}
		o.Access(a.Addr, a.IsWrite())
	}
	if !o.Done() {
		t.Fatal("session did not settle within the stream")
	}
	return len(accs)
}

// snapshotAt feeds accs until the session has completed k windows, then
// snapshots session and cache at that boundary. Returns the snapshot, the
// cache image, and the number of accesses consumed.
func snapshotAt(t *testing.T, o *Online, accs []trace.Access, k uint64) (SessionState, cache.Image, int) {
	t.Helper()
	for i, a := range accs {
		o.Access(a.Addr, a.IsWrite())
		if o.CompletedWindows() >= k {
			if !o.AtWindowBoundary() {
				t.Fatalf("completed window %d but not at a boundary", k)
			}
			st, err := o.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			img, err := o.Cache().(*cache.Configurable).Image()
			if err != nil {
				t.Fatalf("Image: %v", err)
			}
			return st, img, i + 1
		}
	}
	t.Fatalf("stream ended before window %d completed", k)
	panic("unreachable")
}

// sameResult compares two settled searches bit for bit.
func sameResult(t *testing.T, label string, a, b SearchResult) {
	t.Helper()
	if a.Best.Cfg != b.Best.Cfg {
		t.Errorf("%s: settled on %v, want %v", label, b.Best.Cfg, a.Best.Cfg)
	}
	if a.Best.Energy != b.Best.Energy {
		t.Errorf("%s: settled energy %v, want bit-identical %v", label, b.Best.Energy, a.Best.Energy)
	}
	if a.NumExamined() != b.NumExamined() {
		t.Errorf("%s: examined %d, want %d", label, b.NumExamined(), a.NumExamined())
	}
	if a.Degraded != b.Degraded {
		t.Errorf("%s: degraded %v, want %v", label, b.Degraded, a.Degraded)
	}
	for i := 0; i < a.NumExamined() && i < b.NumExamined(); i++ {
		if a.Examined[i].Cfg != b.Examined[i].Cfg || a.Examined[i].Energy != b.Examined[i].Energy {
			t.Errorf("%s: examined[%d] = (%v, %v), want (%v, %v)", label, i,
				b.Examined[i].Cfg, b.Examined[i].Energy, a.Examined[i].Cfg, a.Examined[i].Energy)
		}
	}
}

// TestSessionResumeEquivalence is the heart of crash safety: a session
// snapshotted at any window boundary and resumed on a cache restored from
// the matching image settles on the bit-identical configuration, energy and
// examined sequence as the uninterrupted session — including across the
// search's re-measure and degrade states. Each meter is a pure function of
// configuration and counters, so the resumed life reads what the first life
// would have.
func TestSessionResumeEquivalence(t *testing.T) {
	const window = 4000
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 900_000)
	run := func(meter Meter) *Online {
		o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: window, Meter: meter})
		runToSettle(t, o, accs)
		return o
	}

	// The faulty meters target windows of the clean run: one glitches the
	// second window's exact reading (its re-measure reads differently and
	// passes), the other wedges the third window's configuration for good.
	clean := run(nil).history
	glitch, wedge := clean[1], clean[2].Cfg
	cases := []struct {
		name  string
		meter Meter
		// extra is how many windows the session spends beyond one per
		// examined configuration: re-measures and the degrading pair.
		extra    uint64
		degraded bool
	}{
		{"clean", nil, 0, false},
		{"remeasure", func(cfg cache.Config, st cache.Stats) cache.Stats {
			if cfg == glitch.Cfg && st == glitch.Stats {
				return cache.Stats{}
			}
			return st
		}, 1, false},
		{"degrade", func(cfg cache.Config, st cache.Stats) cache.Stats {
			if cfg == wedge {
				return cache.Stats{}
			}
			return st
		}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted baseline.
			base := run(tc.meter)
			baseWB := base.SettleWritebacks()
			n := base.CompletedWindows()
			if extra := n - uint64(base.Result().NumExamined()); extra != tc.extra || base.Degraded() != tc.degraded {
				t.Fatalf("baseline spent %d extra windows (degraded %v), want %d (degraded %v)", extra, base.Degraded(), tc.extra, tc.degraded)
			}
			if n < 3 {
				t.Fatalf("baseline search examined only %d windows; too short to interrupt", n)
			}

			// Kill at every boundary; -short keeps the first window,
			// mid-search, and just before settling.
			kills := []uint64{1, n / 2, n - 1}
			if !testing.Short() {
				kills = kills[:0]
				for k := uint64(1); k < n; k++ {
					kills = append(kills, k)
				}
			}
			for _, k := range kills {
				o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: window, Meter: tc.meter})
				st, img, pos := snapshotAt(t, o, accs, k)
				o.Abort() // the "killed" process

				restored, err := cache.RestoreConfigurable(img)
				if err != nil {
					t.Fatalf("k=%d: restore cache: %v", k, err)
				}
				r, err := ResumeOnline(restored, p, st, OnlineOptions{Meter: tc.meter})
				if err != nil {
					t.Fatalf("k=%d: ResumeOnline: %v", k, err)
				}
				if r.CompletedWindows() != k {
					t.Fatalf("k=%d: resumed session reports %d completed windows", k, r.CompletedWindows())
				}
				runToSettle(t, r, accs[pos:])
				sameResult(t, "resumed", base.Result(), r.Result())
				if r.Cache().Config() != base.Result().Best.Cfg {
					t.Errorf("k=%d: resumed cache settled on %v, want %v", k, r.Cache().Config(), base.Result().Best.Cfg)
				}
				if r.SettleWritebacks() != baseWB {
					t.Errorf("k=%d: settle writebacks %d, want %d", k, r.SettleWritebacks(), baseWB)
				}
			}
		})
	}
}

// TestSessionResumeFresh covers the degenerate boundary before any access:
// an empty transcript resumes into a brand-new search.
func TestSessionResumeFresh(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "bcnt", 900_000)

	base := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: 4000})
	runToSettle(t, base, accs)

	o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: 4000})
	st, err := o.Snapshot() // before any access
	if err != nil {
		t.Fatalf("Snapshot before first access: %v", err)
	}
	img, err := o.Cache().(*cache.Configurable).Image()
	if err != nil {
		t.Fatal(err)
	}
	o.Abort()
	restored, err := cache.RestoreConfigurable(img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeOnline(restored, p, st, OnlineOptions{})
	if err != nil {
		t.Fatalf("ResumeOnline: %v", err)
	}
	runToSettle(t, r, accs)
	sameResult(t, "fresh-resume", base.Result(), r.Result())
}

// TestSessionResumeFinished: a settled session round-trips, its result
// recomputed from the transcript rather than stored.
func TestSessionResumeFinished(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "fir", 900_000)
	o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: 4000})
	runToSettle(t, o, accs)

	st, err := o.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after settle: %v", err)
	}
	if !st.Finished {
		t.Fatal("snapshot of a settled session not marked finished")
	}
	img, err := o.Cache().(*cache.Configurable).Image()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := cache.RestoreConfigurable(img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeOnline(restored, p, st, OnlineOptions{})
	if err != nil {
		t.Fatalf("ResumeOnline: %v", err)
	}
	if !r.Done() {
		t.Fatal("resumed settled session not Done")
	}
	sameResult(t, "finished-resume", o.Result(), r.Result())
	// And it keeps serving accesses as a plain cache.
	for _, a := range accs[:10_000] {
		r.Access(a.Addr, a.IsWrite())
	}
	if r.Cache().Config() != o.Result().Best.Cfg {
		t.Error("resumed settled cache drifted off the chosen configuration")
	}
}

func TestSnapshotRefusesMidWindow(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 50_000)
	o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: 4000})
	for _, a := range accs[:100] { // mid-warmup / mid-window
		o.Access(a.Addr, a.IsWrite())
	}
	if o.AtWindowBoundary() {
		t.Fatal("mid-window state reports a boundary")
	}
	if _, err := o.Snapshot(); err == nil {
		t.Fatal("Snapshot mid-window must refuse")
	}
	o.Abort()
	// After abort the state is static again and snapshottable.
	st, err := o.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after abort: %v", err)
	}
	if !st.Aborted {
		t.Fatal("snapshot of an aborted session not marked aborted")
	}
}

// TestResumeRejectsCorruptState pins that a tampered snapshot fails
// construction loudly instead of resuming a diverged search.
func TestResumeRejectsCorruptState(t *testing.T) {
	p := energy.DefaultParams()
	accs := dataStream(t, "crc", 900_000)
	o := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, OnlineOptions{Window: 4000})
	st, img, _ := snapshotAt(t, o, accs, 3)
	o.Abort()

	restore := func() *cache.Configurable {
		c, err := cache.RestoreConfigurable(img)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Transcript diverged: first recorded window claims a configuration
	// the deterministic search would never request first.
	bad := st
	bad.History = append([]EvalResult(nil), st.History...)
	bad.History[0].Cfg = cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}
	if _, err := ResumeOnline(restore(), p, bad, OnlineOptions{}); err == nil {
		t.Error("resume accepted a diverged transcript")
	}

	// Cache/snapshot mismatch.
	other := cache.MustConfigurable(cache.BaseConfig())
	if _, err := ResumeOnline(other, p, st, OnlineOptions{}); err == nil {
		t.Error("resume accepted a cache at the wrong configuration")
	}

	// Zero window.
	zw := st
	zw.Window = 0
	if _, err := ResumeOnline(restore(), p, zw, OnlineOptions{}); err == nil {
		t.Error("resume accepted a zero window")
	}

	// Finished flag on a transcript that does not settle.
	fin := st
	fin.Finished = true
	if _, err := ResumeOnline(restore(), p, fin, OnlineOptions{}); err == nil {
		t.Error("resume accepted finished=true with a mid-search transcript")
	}
}
