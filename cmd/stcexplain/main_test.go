package main

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/fleet"
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

// fleetTree serves two sessions through a live fleet with persistence and
// returns its checkpoint root.
func fleetTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	m, err := fleet.New(fleet.Options{Dir: dir, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := workload.ByName("crc")
	if !ok {
		t.Fatal("no crc workload")
	}
	accs := prof.Generate(10_000)
	for _, id := range []string{"a", "b/c"} {
		if err := m.Open(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(id, accs); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestScrubFleetTreeSessionBySession scrubs a tree written by a live fleet:
// each session is reported under its ID, and one rotten generation fails
// the scrub until -scrub-gc removes it.
func TestScrubFleetTreeSessionBySession(t *testing.T) {
	dir := fleetTree(t)
	var out strings.Builder
	if err := run([]string{"-scrub", dir}, nil, &out); err != nil {
		t.Fatalf("clean fleet scrub: %v\n%s", err, out.String())
	}
	for _, want := range []string{`session "a": 3 valid, 0 corrupt`, `session "b/c": 3 valid, 0 corrupt`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("scrub output missing %q:\n%s", want, out.String())
		}
	}

	fs, err := checkpoint.OpenFleetStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fs.Session("b/c")
	if err != nil {
		t.Fatal(err)
	}
	_, head, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(st.Path(head))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(st.Path(head), b, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-scrub", dir}, nil, &out); err == nil || !strings.Contains(out.String(), `session "b/c": 2 valid, 1 corrupt, 0 removed`) {
		t.Fatalf("rotten fleet scrub: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-scrub", dir, "-scrub-gc"}, nil, &out); err != nil || !strings.Contains(out.String(), `session "b/c": 2 valid, 1 corrupt, 1 removed`) {
		t.Fatalf("fleet scrub-gc: %v\n%s", err, out.String())
	}
}

// TestScrubIgnoresLegacyManifest scrubs a fleet tree that still holds the
// manifest.json an older layout wrote: the sessions scrubbed are exactly the
// session directories, and a manifest-only ID is neither reported nor
// created.
func TestScrubIgnoresLegacyManifest(t *testing.T) {
	dir := fleetTree(t)
	manifest := `{"Version": 1, "Sessions": ["a", "b/c", "ghost"]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scrub", dir}, nil, &out); err != nil {
		t.Fatalf("scrub: %v\n%s", err, out.String())
	}
	if got, want := out.String(), "session \"a\": 3 valid, 0 corrupt, 0 removed\nsession \"b/c\": 3 valid, 0 corrupt, 0 removed\n"; got != want {
		t.Fatalf("scrub output:\n%s\nwant:\n%s", got, want)
	}
	fs, err := checkpoint.OpenFleetStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fs.SessionDir("ghost")); !os.IsNotExist(err) {
		t.Fatalf("scrub created a directory for the manifest-only session (%v)", err)
	}
}
