package tuner

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// TestOnlineSettleWritebackAccounting audits the session's settle-writeback
// counter against an independent mirror: a second cache fed the identical
// access stream, reconfigured at the identical points (observed as config
// changes on the session's cache), with its SettleWritebacks counter never
// reset. The two caches hold identical contents at every transition, so any
// disagreement means the session mis-attributed or dropped a shrink charge.
func TestOnlineSettleWritebackAccounting(t *testing.T) {
	for _, name := range []string{"blit", "crc", "fir"} {
		c := cache.MustConfigurable(cache.MinConfig())
		mirror := cache.MustConfigurable(cache.MinConfig())
		sync := func() {
			if want := c.Config(); mirror.Config() != want {
				mirror.AllowShrink = true
				if err := mirror.SetConfig(want); err != nil {
					t.Fatalf("%s: mirror rejected %v: %v", name, want, err)
				}
				mirror.AllowShrink = false
			}
		}
		o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 4000})
		sync() // the session may reconfigure at construction
		for _, a := range streamPrefix(t, name, 500_000, false) {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
			mirror.Access(a.Addr, a.IsWrite())
			sync()
		}
		if !o.Done() {
			t.Fatalf("%s: session did not settle", name)
		}
		if got, want := o.SettleWritebacks(), mirror.Stats().SettleWritebacks; got != want {
			t.Errorf("%s: session reports %d settle writebacks, mirror cache charged %d", name, got, want)
		}
	}
}

// TestOnlineAbortSettleWritebacksStopAccumulating pins the abort path: after
// Abort the cache is a plain cache, so no further shrink can happen and the
// settle-writeback counter must freeze at its abort-time value.
func TestOnlineAbortSettleWritebacksStopAccumulating(t *testing.T) {
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 4000})
	data := streamPrefix(t, "blit", 9000+50_000, false)
	for _, a := range data[:9000] {
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Done() {
		t.Skip("session finished before the abort point")
	}
	o.Abort()
	frozen := o.SettleWritebacks()
	for _, a := range data[9000:] {
		o.Access(a.Addr, a.IsWrite())
	}
	if got := o.SettleWritebacks(); got != frozen {
		t.Errorf("settle writebacks moved from %d to %d after abort", frozen, got)
	}
}

// TestOnlineDegradesMidSession wedges the counter readout only after two
// good windows, so the session degrades from deep inside the sweep rather
// than from its first reading: the Degraded flag must still propagate
// through Result and the cache must settle on SafeConfig.
func TestOnlineDegradesMidSession(t *testing.T) {
	c := cache.MustConfigurable(cache.MinConfig())
	windows := 0
	wedgeLater := func(cfg cache.Config, st cache.Stats) cache.Stats {
		windows++
		if windows <= 2 {
			return st
		}
		return cache.Stats{}
	}
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 4000, Meter: wedgeLater})
	if o.Degraded() {
		t.Fatal("Degraded reported before the session finished")
	}
	for _, a := range streamPrefix(t, "crc", 500_000, false) {
		if o.Done() {
			break
		}
		o.Access(a.Addr, a.IsWrite())
	}
	if !o.Done() {
		t.Fatal("session did not settle after the counter wedged")
	}
	if !o.Degraded() || !o.Result().Degraded {
		t.Errorf("Degraded()=%v Result().Degraded=%v after a mid-session wedge, want both true",
			o.Degraded(), o.Result().Degraded)
	}
	if windows < 3 {
		t.Errorf("meter saw %d windows; the wedge was never reached", windows)
	}
	if o.Cache().Config() != SafeConfig() {
		t.Errorf("degraded session left the cache on %v, want SafeConfig %v", o.Cache().Config(), SafeConfig())
	}
}

// TestOnlineDoubleAbort pins Abort's idempotence: any number of calls,
// before or after the search settles, leave the session in a consistent
// state.
func TestOnlineDoubleAbort(t *testing.T) {
	// Mid-session: the first Abort aborts, the rest are no-ops.
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: 5000})
	for _, a := range streamPrefix(t, "fir", 7000, false) {
		if o.Done() {
			break
		}
		o.Access(a.Addr, a.IsWrite())
	}
	for i := 0; i < 3; i++ {
		o.Abort()
	}
	if !o.Done() && !o.Aborted() {
		t.Error("mid-session Abort neither settled nor aborted the session")
	}

	// Post-settle: Abort must not retroactively mark the session aborted.
	done, _ := runOnline(t, "crc", 4000, 500_000)
	if !done.Done() {
		t.Fatal("session did not settle")
	}
	for i := 0; i < 3; i++ {
		done.Abort()
	}
	if done.Aborted() {
		t.Error("Abort after settling marked the session aborted")
	}
	if !done.Done() {
		t.Error("Abort after settling un-finished the session")
	}
}
