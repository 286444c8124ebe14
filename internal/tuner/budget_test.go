package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

func TestConstrainRestrictsSpace(t *testing.T) {
	sp := DefaultSpace().Constrain(4096)
	if got := sp.Sizes; len(got) != 2 || got[0] != 2048 || got[1] != 4096 {
		t.Fatalf("sizes = %v, want [2048 4096]", got)
	}
	if sp.Valid(cache.Config{SizeBytes: 8192, Ways: 2, LineBytes: 32}) {
		t.Fatal("over-budget configuration accepted")
	}
	if !sp.Valid(cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}) {
		t.Fatal("in-budget configuration rejected")
	}
	// Unconstrained passthrough.
	if got := DefaultSpace().Constrain(0).Sizes; len(got) != 3 {
		t.Fatalf("maxBytes=0 should leave the space unchanged, sizes = %v", got)
	}
	// A budget under the smallest size still keeps the smallest size: a
	// cache must exist somewhere, and admission control owns the floor.
	tiny := DefaultSpace().Constrain(1024)
	if len(tiny.Sizes) != 1 || tiny.Sizes[0] != 2048 {
		t.Fatalf("tiny budget sizes = %v, want [2048]", tiny.Sizes)
	}
	if !tiny.Valid(cache.MinConfig()) {
		t.Fatal("smallest configuration must survive any budget")
	}
}

func TestMinFootprintBytes(t *testing.T) {
	if got := DefaultSpace().MinFootprintBytes(); got != 2048 {
		t.Fatalf("MinFootprintBytes = %d, want 2048", got)
	}
	if got := (Space{}).MinFootprintBytes(); got != 0 {
		t.Fatalf("empty space MinFootprintBytes = %d, want 0", got)
	}
}

func TestClampToBudget(t *testing.T) {
	sp := DefaultSpace()
	cases := []struct {
		in       cache.Config
		maxBytes int
		want     cache.Config
	}{
		// Already fits: unchanged.
		{cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}, 4096,
			cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}},
		// 8K/4W/pred shrunk to 4K: 4 ways are unrealisable at 4K, so
		// prediction drops and ways reduce to 2.
		{cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 32, WayPredict: true}, 4096,
			cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}},
		// Shrunk all the way to the direct-mapped minimum size.
		{cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64, WayPredict: true}, 2048,
			cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 64}},
		// Budget below every size: smallest size wins.
		{cache.Config{SizeBytes: 8192, Ways: 2, LineBytes: 16}, 1024,
			cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 16}},
		// Unconstrained passthrough.
		{cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}, 0,
			cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}},
	}
	for _, c := range cases {
		got := ClampToBudget(c.in, c.maxBytes, sp)
		if got != c.want {
			t.Errorf("ClampToBudget(%v, %d) = %v, want %v", c.in, c.maxBytes, got, c.want)
		}
		if c.maxBytes > 0 && got.SizeBytes > c.maxBytes && got.SizeBytes != 2048 {
			t.Errorf("ClampToBudget(%v, %d) = %v exceeds the budget", c.in, c.maxBytes, got)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ClampToBudget(%v, %d) = %v is unrealisable: %v", c.in, c.maxBytes, got, err)
		}
	}
}

func TestExcludedByBudget(t *testing.T) {
	sp := DefaultSpace()
	// 27 valid configurations total; a 4096 B budget removes the 8K tier.
	all := 0
	for _, c := range cache.AllConfigs() {
		if c.SizeBytes > 4096 {
			all++
		}
	}
	if got := ExcludedByBudget(sp, 4096); got != all {
		t.Fatalf("ExcludedByBudget(4096) = %d, want %d (the 8K tier)", got, all)
	}
	if got := ExcludedByBudget(sp, 0); got != 0 {
		t.Fatalf("ExcludedByBudget(0) = %d, want 0", got)
	}
	if got := ExcludedByBudget(sp, 1<<20); got != 0 {
		t.Fatalf("ExcludedByBudget(1M) = %d, want 0", got)
	}
}

// strided exercises a session with a simple deterministic access pattern.
func strided(o *Online, n int) {
	for i := 0; i < n && !o.Done(); i++ {
		o.Access(uint32(i*64%32768), i%7 == 0)
	}
}

func TestConstrainedOnlineSettlesWithinBudget(t *testing.T) {
	for _, budget := range []int{2048, 4096} {
		c := cache.MustConfigurable(cache.MinConfig())
		o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 500, MaxBytes: budget})
		strided(o, 200_000)
		if !o.Done() {
			t.Fatalf("budget %d: search did not settle", budget)
		}
		res := o.Result()
		if res.Best.Cfg.SizeBytes > budget {
			t.Fatalf("budget %d: settled on %v", budget, res.Best.Cfg)
		}
		for _, r := range res.Examined {
			if r.Cfg.SizeBytes > budget {
				t.Fatalf("budget %d: examined over-budget %v", budget, r.Cfg)
			}
		}
		if o.MaxBytes() != budget {
			t.Fatalf("MaxBytes = %d, want %d", o.MaxBytes(), budget)
		}
	}
}

// TestConstrainedSnapshotResume pins that a budget-constrained session
// snapshotted mid-search resumes into the identical restricted walk: the
// resumed session's settle matches an uninterrupted constrained run.
func TestConstrainedSnapshotResume(t *testing.T) {
	const budget = 4096
	run := func(interrupt bool) SearchResult {
		c := cache.MustConfigurable(cache.MinConfig())
		o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 500, MaxBytes: budget})
		i := 0
		for !o.Done() {
			o.Access(uint32(i*64%32768), i%7 == 0)
			i++
			if interrupt && o.CompletedWindows() == 2 && o.AtWindowBoundary() {
				st, err := o.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if st.MaxBytes != budget {
					t.Fatalf("snapshot MaxBytes = %d, want %d", st.MaxBytes, budget)
				}
				img, err := c.Image()
				if err != nil {
					t.Fatal(err)
				}
				o.Abort()
				c2, err := cache.RestoreConfigurable(img)
				if err != nil {
					t.Fatal(err)
				}
				o2, err := ResumeOnline(c2, energy.DefaultParams(), st, OnlineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				o = o2
				interrupt = false
			}
		}
		return o.Result()
	}
	base := run(false)
	resumed := run(true)
	if base.Best.Cfg != resumed.Best.Cfg || base.Best.Energy != resumed.Best.Energy {
		t.Fatalf("resumed constrained search settled on %v (%g), uninterrupted on %v (%g)",
			resumed.Best.Cfg, resumed.Best.Energy, base.Best.Cfg, base.Best.Energy)
	}
	if len(base.Examined) != len(resumed.Examined) {
		t.Fatalf("examined %d vs %d configurations", len(resumed.Examined), len(base.Examined))
	}
}

// TestWarmStartSearch pins the warm re-search entry point: a search started
// from a mid-space configuration only explores upward from it, within the
// budget.
func TestWarmStartSearch(t *testing.T) {
	start := cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32}
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 500, MaxBytes: 4096, Start: start})
	strided(o, 200_000)
	if !o.Done() {
		t.Fatal("warm search did not settle")
	}
	for _, r := range o.Result().Examined {
		if r.Cfg.SizeBytes > 4096 {
			t.Fatalf("warm constrained search examined %v", r.Cfg)
		}
		if r.Cfg.SizeBytes < start.SizeBytes {
			t.Fatalf("warm search walked below its start: %v", r.Cfg)
		}
	}
}
