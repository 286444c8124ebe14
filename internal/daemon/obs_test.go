package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"selftune/internal/obs"
)

// The decision log must not grow without bound: a MaxEvents cap keeps the
// newest entries, counts what it dropped, and a capped log is exactly the
// tail of the uncapped one.
func TestDaemonEventLogCap(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)

	full, err := New(Options{Window: 2_000, MaxEvents: -1})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, full, accs)

	const cap = 2
	capped, err := New(Options{Window: 2_000, MaxEvents: cap})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, capped, accs)

	fe, ce := full.Events(), capped.Events()
	if len(fe) <= cap {
		t.Skipf("stream produced only %d events; cap of %d never engaged", len(fe), cap)
	}
	if len(ce) != cap {
		t.Fatalf("capped log holds %d events, want %d", len(ce), cap)
	}
	if got, want := capped.EventsDropped(), uint64(len(fe)-cap); got != want {
		t.Fatalf("EventsDropped = %d, want %d", got, want)
	}
	if full.EventsDropped() != 0 {
		t.Fatalf("uncapped daemon dropped %d events", full.EventsDropped())
	}
	for i := range ce {
		if ce[i] != fe[len(fe)-cap+i] {
			t.Fatalf("capped log is not the tail of the full log:\ncapped %+v\nfull tail %+v", ce, fe[len(fe)-cap:])
		}
	}
}

// Telemetry must be inert: a recorded daemon makes exactly the decisions an
// unrecorded one makes, and two recorded runs log identical bytes. The log
// must contain the whole story — window observations, drift, re-tunes,
// settles, and the per-step search trajectory.
func TestDaemonTelemetryInertAndComplete(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)

	run := func(rec obs.Recorder) *Daemon {
		d, err := New(Options{Window: 2_000, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, d, accs)
		return d
	}

	silent := run(nil)
	var logA, logB bytes.Buffer
	loud := run(obs.NewJSONL(&logA))
	run(obs.NewJSONL(&logB))

	if logA.String() != logB.String() {
		t.Fatal("two identical recorded runs produced different logs")
	}
	se, le := silent.Events(), loud.Events()
	if len(se) != len(le) {
		t.Fatalf("recording changed the decision count: %d vs %d", len(se), len(le))
	}
	for i := range se {
		if se[i] != le[i] {
			t.Fatalf("recording changed decision %d: %+v vs %+v", i, se[i], le[i])
		}
	}
	if silent.Config() != loud.Config() || silent.Consumed() != loud.Consumed() {
		t.Fatalf("recording changed the outcome: %v/%d vs %v/%d",
			silent.Config(), silent.Consumed(), loud.Config(), loud.Consumed())
	}

	evs, err := obs.ReadEvents(&logA)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range evs {
		counts[e.Name]++
	}
	for _, want := range []string{"tuner.step", "tuner.settle", "daemon.window", "daemon.drift", "daemon.retune", "daemon.settle"} {
		if counts[want] == 0 {
			t.Errorf("log has no %q events (have %v)", want, counts)
		}
	}
	settles := 0
	for _, e := range se {
		if e.Kind == "settle" {
			settles++
		}
	}
	if counts["daemon.settle"] != settles {
		t.Errorf("daemon.settle events %d, decision log settles %d", counts["daemon.settle"], settles)
	}
}

// A daemon with a registry publishes gauges that match its accessors.
func TestDaemonRegistryGauges(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)
	reg := obs.NewRegistry()
	d, err := New(Options{Window: 2_000, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, accs)

	checks := map[string]float64{
		"daemon_consumed_accesses":    float64(d.Consumed()),
		"daemon_windows_total":        float64(d.Windows()),
		"daemon_retunes_total":        float64(d.Retunes()),
		"daemon_events_dropped_total": float64(d.EventsDropped()),
	}
	for name, want := range checks {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if d.Retunes() == 0 {
		t.Error("stream produced no retunes; gauge check is vacuous")
	}
}

// Recording must not perturb what lands on disk: with identical inputs, the
// newest checkpoint file of a recorded daemon is byte-identical to an
// unrecorded one's. A recorded recovery emits daemon.recover and
// daemon.checkpoint lifecycle events.
func TestDaemonCheckpointBytesUnchangedByRecording(t *testing.T) {
	accs := twoPhaseStream(120_000, 120_000)

	run := func(dir string, rec obs.Recorder) {
		d, err := New(Options{Window: 2_000, Dir: dir, CheckpointEvery: 4, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, d, accs)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	newest := func(dir string) []byte {
		names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.stck"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no checkpoints in %s (err %v)", dir, err)
		}
		sort.Strings(names)
		b, err := os.ReadFile(names[len(names)-1])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	var log bytes.Buffer
	run(dirA, nil)
	run(dirB, obs.NewJSONL(&log))
	if !bytes.Equal(newest(dirA), newest(dirB)) {
		t.Fatal("recording changed the checkpoint bytes")
	}

	// Restart the recorded daemon: it must announce the recovery.
	var log2 bytes.Buffer
	d, err := New(Options{Window: 2_000, Dir: dirB, CheckpointEvery: 4, Rec: obs.NewJSONL(&log2)})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovered() {
		t.Fatal("restart did not recover")
	}
	evs, err := obs.ReadEvents(&log2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Name != "daemon.recover" {
		t.Fatalf("first event after restart is %+v, want daemon.recover", evs)
	}
	evs1, err := obs.ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts int
	for _, e := range evs1 {
		if e.Name == "daemon.checkpoint" {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Error("recorded run emitted no daemon.checkpoint events")
	}
}
