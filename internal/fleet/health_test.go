package fleet

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/faults"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// feedSelfHealing streams tr into the session following the health
// contract: quarantined submissions are discarded (each ticks the backoff),
// a Revived error restarts the stream from byte 0 (the consumed-prefix skip
// keeps the effect exactly-once), and Failed is terminal. If the trace runs
// out while the session is still quarantined, empty submissions nudge the
// backoff until revival.
func feedSelfHealing(t *testing.T, m *Manager, id string, tr []trace.Access, batch int) error {
	t.Helper()
	for restart := 0; ; restart++ {
		if restart > 100 {
			t.Fatalf("%s: did not settle within 100 restarts", id)
		}
		revived := false
		for off := 0; off < len(tr) && !revived; {
			end := off + batch
			if end > len(tr) {
				end = len(tr)
			}
			err := m.Submit(id, tr[off:end])
			var herr *HealthError
			switch {
			case err == nil:
				off = end
			case errors.As(err, &herr) && herr.Revived:
				revived = true
			case errors.As(err, &herr) && herr.State == Quarantined:
				off = end // discarded, backoff ticked
			default:
				return err
			}
		}
		if revived {
			continue
		}
		// Drain the shard queue so a quarantine pending in it lands before
		// the health check.
		if err := m.Quiesce(id); err != nil {
			return err
		}
		h, err := m.Health(id)
		if err != nil {
			return err
		}
		switch h {
		case Active:
			return nil
		case Failed:
			return m.Submit(id, nil)
		case Quarantined:
			err := m.Submit(id, nil)
			var herr *HealthError
			if errors.As(err, &herr) && (herr.Revived || herr.State == Quarantined) {
				continue
			}
			return err
		}
	}
}

// soloBaseline runs one trace the single-tenant way and returns its
// decision log, settled outcome and consumed count.
func soloBaseline(t *testing.T, dir string, window uint64, tr []trace.Access) ([]checkpoint.Event, *checkpoint.Outcome, uint64) {
	t.Helper()
	d, err := daemon.New(daemon.Options{Window: window, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// One access per call, as the fleet-vs-solo references step.
	for i := range tr {
		if _, _, err := d.StepBatch(tr[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return d.Events(), d.Settled(), d.Consumed()
}

// TestWorkerPanicContainmentAndRevive is the tentpole property: a panic
// injected mid-batch (a meter crash inside Step) fails only the offending
// session — its shard sibling settles bit-identical to a solo run — and the
// quarantined session revives from its last good checkpoint and re-settles
// to exactly the configuration an uninterrupted run reaches.
func TestWorkerPanicContainmentAndRevive(t *testing.T) {
	const window = 500
	const accesses = 30_000
	const batch = 1_000
	base := t.TempDir()

	trA := genTrace(t, "crc", accesses)
	trB := genTrace(t, "bcnt", accesses)
	logA, settledA, consumedA := soloBaseline(t, filepath.Join(base, "solo-a"), window, trA)
	logB, settledB, consumedB := soloBaseline(t, filepath.Join(base, "solo-b"), window, trB)

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	m, err := New(Options{
		Shards:  1, // both sessions share one worker: containment is the point
		Dir:     filepath.Join(base, "fleet"),
		Rec:     obs.NewJSONL(&buf),
		Reg:     reg,
		Session: daemon.Options{Window: window},
		Configure: func(id string, o *daemon.Options) {
			if id == "a" {
				o.Meter = faults.PanicMeter(12) // one crash, mid-search
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := m.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave the two streams so the panic lands between b's batches on
	// the shared worker.
	for off := 0; off < accesses; off += batch {
		if err := m.Submit("b", trB[off:off+batch]); err != nil {
			t.Fatalf("sibling b: %v", err)
		}
		err := m.Submit("a", trA[off:off+batch])
		var herr *HealthError
		if err != nil && !errors.As(err, &herr) {
			t.Fatalf("a: %v", err)
		}
	}
	// a may be quarantined now; drive it through revival and re-stream.
	if err := feedSelfHealing(t, m, "a", trA, batch); err != nil {
		t.Fatalf("a after revive: %v", err)
	}

	type final struct {
		log      []checkpoint.Event
		settled  *checkpoint.Outcome
		consumed uint64
		revives  int
	}
	finals := map[string]final{}
	for _, id := range []string{"a", "b"} {
		if err := m.Quiesce(id); err != nil {
			t.Fatal(err)
		}
		d, err := m.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CloseSession(id); err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		finals[id] = final{log: d.Events(), settled: d.Settled(), consumed: d.Consumed()}
	}
	rep := m.Report()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if rep.WorkerPanics != 1 {
		t.Errorf("WorkerPanics = %d, want 1", rep.WorkerPanics)
	}
	for _, name := range []string{"fleet.worker_panic", "fleet.quarantine", "fleet.revive"} {
		evs := fleetEvents(t, &buf, name)
		if len(evs) != 1 {
			t.Errorf("%s events: %d, want 1", name, len(evs))
			continue
		}
		if sid := evs[0].Str("sid"); sid != "a" {
			t.Errorf("%s stamped sid %q, want %q", name, sid, "a")
		}
	}
	for _, s := range rep.Sessions {
		switch s.ID {
		case "a":
			if s.Health != Active || s.Revives != 1 {
				t.Errorf("a closed with health=%v revives=%d, want active/1", s.Health, s.Revives)
			}
		case "b":
			if s.Health != Active || s.Revives != 0 {
				t.Errorf("b closed with health=%v revives=%d, want active/0", s.Health, s.Revives)
			}
		}
	}

	// The sibling never noticed: bit-identical to its solo run.
	if got := finals["b"]; got.consumed != consumedB || !reflect.DeepEqual(got.settled, settledB) || !reflect.DeepEqual(got.log, logB) {
		t.Errorf("sibling b diverged from its solo run (consumed %d vs %d)", got.consumed, consumedB)
	}
	// The victim revived from checkpoint and re-settled identically.
	if got := finals["a"]; got.consumed != consumedA || !reflect.DeepEqual(got.settled, settledA) || !reflect.DeepEqual(got.log, logA) {
		t.Errorf("revived a diverged from its solo run (consumed %d vs %d, settled %+v vs %+v)",
			got.consumed, consumedA, got.settled, settledA)
	}
}

// TestStickyFaultExhaustsRevivesIntoFailed drives a permanently faulty
// session through the revive cap: every life re-panics at the same readout,
// so after MaxRevives revivals the session lands in the terminal Failed
// state with a reasoned event, and closing it reports the typed error.
func TestStickyFaultExhaustsRevivesIntoFailed(t *testing.T) {
	const window = 200
	const accesses = 20_000
	var buf bytes.Buffer
	m, err := New(Options{
		Shards:     1,
		Dir:        t.TempDir(),
		Rec:        obs.NewJSONL(&buf),
		MaxRevives: 1,
		Session:    daemon.Options{Window: window},
		Configure: func(id string, o *daemon.Options) {
			o.Meter = faults.PanicMeterSticky(3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open("doomed"); err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, "bilv", accesses)
	err = feedSelfHealing(t, m, "doomed", tr, 500)
	var herr *HealthError
	if !errors.As(err, &herr) || herr.State != Failed {
		t.Fatalf("want terminal *HealthError(Failed), got %v", err)
	}
	if h, _ := m.Health("doomed"); h != Failed {
		t.Fatalf("Health = %v, want Failed", h)
	}
	err = m.CloseSession("doomed")
	if !errors.As(err, &herr) || herr.State != Failed {
		t.Errorf("CloseSession: want *HealthError(Failed), got %v", err)
	}
	// The worker emits the failure event after publishing the Failed
	// state, so the log is read only once CloseSession has returned: the
	// worker serves the close item after it finishes the failing batch.
	if evs := fleetEvents(t, &buf, "fleet.session_failed"); len(evs) != 1 || evs[0].Str("sid") != "doomed" {
		t.Errorf("want exactly one sid-stamped fleet.session_failed event, got %d", len(evs))
	}
	rep := m.Report()
	if len(rep.Sessions) != 1 || rep.Sessions[0].Health != Failed || rep.Sessions[0].Revives != 1 {
		t.Errorf("report %+v, want one failed session with 1 revive", rep.Sessions)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSessionReleasesAdmissionSlot pins the budget-accounting rule:
// a session that fails terminally stops counting against admission, so a
// parked session is admitted in its place without anyone closing anything.
func TestFailedSessionReleasesAdmissionSlot(t *testing.T) {
	var buf bytes.Buffer
	m, err := New(Options{
		Shards:           1,
		Rec:              obs.NewJSONL(&buf),
		MaxRevives:       -1, // failures are terminal immediately
		EnforceBudget:    true,
		AllocBudgetBytes: 2048, // exactly one admitted session
		PendingQueue:     2,
		Session:          daemon.Options{Window: 200},
		Configure: func(id string, o *daemon.Options) {
			if id == "victim" {
				o.Meter = faults.PanicMeterSticky(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open("victim"); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("waiter"); err != nil {
		t.Fatal(err)
	}
	if got := m.Pending(); len(got) != 1 || got[0] != "waiter" {
		t.Fatalf("Pending = %v, want [waiter]", got)
	}
	// The waiter's trace buffers while it is parked; Quiesce returns only
	// once the waiter is admitted and has consumed all of it, which needs
	// the victim's slot — and nobody closes the victim.
	wtr := genTrace(t, "bcnt", 2_000)
	if err := m.Submit("waiter", wtr); err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, "crc", 5_000)
	for off := 0; off < len(tr); off += 500 {
		if err := m.Submit("victim", tr[off:off+500]); err != nil {
			break // the quarantine turned terminal
		}
	}
	if err := m.Quiesce("waiter"); err != nil {
		t.Fatal(err)
	}
	h, err := m.Health("victim")
	if err != nil {
		t.Fatal(err)
	}
	if h != Failed || len(m.Pending()) != 0 {
		t.Fatalf("victim health %v, pending %v: want Failed and the waiter admitted", h, m.Pending())
	}
	d, err := m.Session("waiter")
	if err != nil {
		t.Fatal(err)
	}
	if d.Consumed() != 2_000 {
		t.Errorf("waiter consumed %d, want 2000", d.Consumed())
	}
	if err := m.Close(); err == nil {
		t.Error("Close should surface the failed session's error")
	}
}
