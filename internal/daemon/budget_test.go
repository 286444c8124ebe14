package daemon

import (
	"testing"

	"selftune/internal/trace"
)

// feedStrided feeds a deterministic 8 KiB-footprint strided pattern (which
// settles on the 8K tier unconstrained, so every budget below that binds),
// indexed by the daemon's consumed count so a resumed daemon continues the
// identical stream.
func feedStrided(t *testing.T, d *Daemon, until uint64) {
	t.Helper()
	for d.Consumed() < until {
		i := d.Consumed()
		if _, _, err := d.StepBatch([]trace.Access{stridedAccess(i)}); err != nil {
			t.Fatalf("StepBatch at %d: %v", i, err)
		}
	}
}

// stridedAccess is access i of the feedStrided pattern: every seventh one
// writes.
func stridedAccess(i uint64) trace.Access {
	a := trace.Access{Addr: uint32(i * 16 % 8192), Kind: trace.DataRead}
	if i%7 == 0 {
		a.Kind = trace.DataWrite
	}
	return a
}

// settleStrided feeds until the daemon settles (or the access cap trips).
func settleStrided(t *testing.T, d *Daemon) {
	t.Helper()
	cap := d.Consumed() + 200_000
	for d.Tuning() && d.Consumed() < cap {
		feedStrided(t, d, d.Consumed()+1)
	}
	if d.Settled() == nil {
		t.Fatalf("no settle after %d accesses (events: %+v)", d.Consumed(), d.Events())
	}
}

func TestDaemonBudgetConstrainsSettle(t *testing.T) {
	d, err := New(Options{Window: 500, BudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if d.Budget() != 4096 {
		t.Fatalf("Budget() = %d, want 4096", d.Budget())
	}
	settleStrided(t, d)
	if got := d.Settled().Cfg; got.SizeBytes > 4096 {
		t.Fatalf("settled on %v despite a 4096 B budget", got)
	}
	res, ok := d.Session().LastResult()
	if !ok {
		t.Fatal("no search result recorded")
	}
	for _, r := range res.Examined {
		if r.Cfg.SizeBytes > 4096 {
			t.Fatalf("examined over-budget configuration %v", r.Cfg)
		}
	}
}

func TestSetBudgetTriggersConstrainedRetune(t *testing.T) {
	d, err := New(Options{Window: 500})
	if err != nil {
		t.Fatal(err)
	}
	settleStrided(t, d)
	if got := d.Settled().Cfg; got.SizeBytes <= 2048 {
		t.Fatalf("unconstrained settle at %v; the stream must favour a larger cache for the shrink to bind", got)
	}

	retunes := d.Retunes()
	events := len(d.Events())
	d.SetBudget(2048)
	if d.Budget() != 2048 {
		t.Fatalf("Budget() = %d, want 2048", d.Budget())
	}
	if d.Retunes() != retunes+1 {
		t.Fatalf("retunes = %d, want %d (budget change must count as a re-tune)", d.Retunes(), retunes+1)
	}
	if !d.Tuning() {
		t.Fatal("budget change did not restart the search")
	}
	ev := d.Events()
	if len(ev) != events+2 {
		t.Fatalf("events grew by %d, want 2 (budget + retune): %+v", len(ev)-events, ev[events:])
	}
	if ev[events].Kind != "budget" || ev[events].Budget != 2048 {
		t.Fatalf("first appended event = %+v, want kind=budget budget=2048", ev[events])
	}
	if ev[events+1].Kind != "retune" || ev[events+1].Budget != 2048 {
		t.Fatalf("second appended event = %+v, want kind=retune budget=2048", ev[events+1])
	}

	// Setting the same budget again is a no-op.
	d.SetBudget(2048)
	if len(d.Events()) != len(ev) || d.Retunes() != retunes+1 {
		t.Fatal("SetBudget with the in-force value was not a no-op")
	}

	settleStrided(t, d)
	if got := d.Settled().Cfg; got.SizeBytes > 2048 {
		t.Fatalf("re-settled on %v despite the 2048 B budget", got)
	}
}

// TestBudgetSurvivesRestart pins that a mid-stream budget change is part of
// the durable state: a daemon recovered from checkpoints carries the
// assignment without the owner re-supplying it in Options.
func TestBudgetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Window: 500, Dir: dir, CheckpointEvery: 1}
	d1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	settleStrided(t, d1)
	d1.SetBudget(4096)
	// A couple of windows so at least one boundary snapshot carries the
	// budget to disk.
	feedStrided(t, d1, d1.Consumed()+2_000)
	consumed := d1.Consumed() // d1 is abandoned without Close: a kill

	d2, err := New(opts) // note: no BudgetBytes — it must come from disk
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Recovered() {
		t.Fatal("second life did not recover from the checkpoint")
	}
	if d2.Budget() != 4096 {
		t.Fatalf("recovered Budget() = %d, want 4096", d2.Budget())
	}
	if d2.Consumed() > consumed {
		t.Fatalf("recovered consumed %d > killed consumed %d", d2.Consumed(), consumed)
	}
	var sawBudget bool
	for _, e := range d2.Events() {
		if e.Kind == "budget" && e.Budget == 4096 {
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Fatalf("recovered decision log lost the budget event: %+v", d2.Events())
	}
	// The continuation keeps honouring the budget.
	feedStrided(t, d2, consumed)
	settleStrided(t, d2)
	if got := d2.Settled().Cfg; got.SizeBytes > 4096 {
		t.Fatalf("recovered daemon settled on %v despite the 4096 B budget", got)
	}
	// An Options-supplied budget must not override the checkpointed one.
	opts2 := opts
	opts2.BudgetBytes = 2048
	d3, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Budget() != 4096 {
		t.Fatalf("checkpointed budget lost to Options: Budget() = %d, want 4096", d3.Budget())
	}
}
