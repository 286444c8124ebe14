package daemon

import (
	"bytes"
	"context"
	"os"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// TestRunDrainsInFlightWindowOnCancel pins the graceful-shutdown contract:
// after a cancellation the final persisted checkpoint sits at a measurement
// window boundary covering every consumed access — the in-flight window is
// drained, not thrown away for the next life to replay. The drain's
// telemetry is pinned too: one daemon.drain span whose work is exactly the
// accesses consumed after the cancel, and one daemon_drain_seconds
// observation.
func TestRunDrainsInFlightWindowOnCancel(t *testing.T) {
	prof, _ := workload.ByName("crc")
	accs := trace.OnlyData(prof.Generate(400_000))

	dir := t.TempDir()
	var log bytes.Buffer
	reg := obs.NewRegistry()
	d, err := New(Options{Window: 2_000, Dir: dir, Rec: obs.NewJSONL(&log), Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Step partway into the first measurement window, so a window is
	// genuinely in flight when the cancelled Run takes over.
	for d.Consumed() < 500 {
		if _, _, err := d.StepBatch(accs[d.Consumed():500]); err != nil {
			t.Fatal(err)
		}
	}
	if d.Session().AtBoundary() {
		t.Fatal("test setup: expected to be mid-window after 500 accesses")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Run(ctx, accs); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if d.Consumed() <= 500 {
		t.Fatalf("drain consumed nothing beyond the cancel point (%d accesses); the in-flight window was not finished", d.Consumed())
	}
	if !d.Session().AtBoundary() {
		t.Fatal("daemon stopped mid-window despite a draining shutdown")
	}

	evs, err := obs.ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	var ends []obs.RawEvent
	for _, ev := range evs {
		if ev.Name == "daemon.drain.end" {
			ends = append(ends, ev)
		}
	}
	if len(ends) != 1 {
		t.Fatalf("got %d daemon.drain.end events, want 1", len(ends))
	}
	if work, want := uint64(ends[0].Float("work")), d.Consumed()-500; work != want {
		t.Fatalf("daemon.drain span reports %d accesses of work, but %d were consumed after the cancel", work, want)
	}
	if n := reg.Histogram("daemon_drain_seconds").Count(); n != 1 {
		t.Fatalf("daemon_drain_seconds has %d observations, want 1", n)
	}

	store, err := checkpoint.OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no checkpoint persisted by the draining shutdown")
	}
	if st.Consumed != d.Consumed() {
		t.Fatalf("checkpoint covers %d accesses but the daemon consumed %d: the in-flight window was lost", st.Consumed, d.Consumed())
	}
}

// TestNewFailsOnUnwritableCheckpointDir pins that a bad -dir surfaces at
// startup (daemon construction), not minutes later at the first periodic
// persist.
func TestNewFailsOnUnwritableCheckpointDir(t *testing.T) {
	// A regular file where a directory must go defeats MkdirAll for any
	// privilege level.
	dir := t.TempDir() + "/occupied"
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir + "/ckpts"}); err == nil {
		t.Fatal("New accepted an unusable checkpoint directory")
	}
}
