package main

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/workload"
)

// daemonLog runs a small daemon in-process and returns its JSONL event log —
// a real log, spans included, not a hand-crafted one.
func daemonLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	d, err := daemon.New(daemon.Options{
		Window: 500,
		Dir:    t.TempDir(),
		Rec:    obs.NewJSONL(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := workload.ByName("crc")
	if !ok {
		t.Fatal("no crc workload")
	}
	for accs := prof.Generate(4_000); len(accs) > 0; {
		n, _, err := d.StepBatch(accs)
		if err != nil {
			t.Fatal(err)
		}
		accs = accs[n:]
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnknownSessionExitsListingPresent pins the satellite contract: asking
// for a session the log does not contain fails (non-zero exit via main's
// error path) and the error names the sessions actually present.
func TestUnknownSessionExitsListingPresent(t *testing.T) {
	var log bytes.Buffer
	rec := obs.NewJSONL(&log)
	for _, sid := range []string{"alpha", "beta"} {
		obs.With(rec, slog.String("sid", sid)).Record(obs.Event{Name: "tuner.step", Session: 0, Step: 1})
	}
	var out strings.Builder
	err := run([]string{"-session", "nope"}, bytes.NewReader(log.Bytes()), &out)
	if err == nil {
		t.Fatal("unknown -session did not fail")
	}
	for _, want := range []string{`"nope"`, "alpha", "beta"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// TestTimelineRendersRealDaemonLog drives -timeline over an actual daemon
// run: the search spans the session emitted must show up with work-unit
// bars.
func TestTimelineRendersRealDaemonLog(t *testing.T) {
	log := daemonLog(t)
	var out strings.Builder
	if err := run([]string{"-timeline"}, bytes.NewReader(log), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"span timeline", "tuner.search", "configs", "daemon.persist", "boundaries"} {
		if !strings.Contains(got, want) {
			t.Fatalf("timeline missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "seconds") {
		t.Fatalf("timeline mentions wall-clock:\n%s", got)
	}
}

// TestTimelineFailsOnSpanFreeLog pins the non-zero exit for a log with no
// span events at all.
func TestTimelineFailsOnSpanFreeLog(t *testing.T) {
	var log bytes.Buffer
	obs.NewJSONL(&log).Record(obs.Event{Name: "tuner.step", Session: 0, Step: 1})
	var out strings.Builder
	err := run([]string{"-timeline"}, bytes.NewReader(log.Bytes()), &out)
	if err == nil || !strings.Contains(err.Error(), "no span events") {
		t.Fatalf("span-free -timeline: %v", err)
	}
}

// TestStoryStillRenders guards the default mode through the run() refactor.
func TestStoryStillRenders(t *testing.T) {
	log := daemonLog(t)
	var out strings.Builder
	if err := run(nil, bytes.NewReader(log), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "examining") {
		t.Fatalf("search story missing:\n%s", out.String())
	}
}
