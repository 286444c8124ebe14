package fleet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"selftune/internal/daemon"
	"selftune/internal/obs"
)

// TestOpenTracedStampsSessionEvents pins the trace-tag contract: a tagged
// session's events all carry the tag (alongside sid) and fleet.open echoes
// it, while an untagged session's events carry no trace key at all — the
// tag must never leak into the bit-identical-to-solo baseline.
func TestOpenTracedStampsSessionEvents(t *testing.T) {
	var buf bytes.Buffer
	m, err := New(Options{Shards: 1, Rec: obs.NewJSONL(&buf), Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.OpenTraced("tagged", "req-42"); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("plain"); err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, "crc", 3_000)
	if err := m.Submit("tagged", tr); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit("plain", tr); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var taggedEvents, openEcho int
	for _, ev := range evs {
		switch ev.Str("sid") {
		case "tagged":
			if ev.Str("trace") != "req-42" {
				t.Fatalf("tagged session event %q lost the trace tag: %v", ev.Name, ev.Fields)
			}
			taggedEvents++
		case "plain":
			if _, ok := ev.Fields["trace"]; ok {
				t.Fatalf("untagged session event %q grew a trace field: %v", ev.Name, ev.Fields)
			}
		}
		if ev.Name == "fleet.open" && ev.Str("session") == "tagged" {
			if ev.Str("trace") != "req-42" {
				t.Fatalf("fleet.open does not echo the trace tag: %v", ev.Fields)
			}
			openEcho++
		}
	}
	if taggedEvents == 0 || openEcho != 1 {
		t.Fatalf("saw %d tagged session events and %d fleet.open echoes", taggedEvents, openEcho)
	}
}

// TestWireTraceTagEndToEnd drives the tag through the v3 open frame:
// client-side OpenTrace, server-side session events carrying it.
func TestWireTraceTagEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	m, err := New(Options{Shards: 1, Rec: obs.NewJSONL(&buf), Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var conn bytes.Buffer
	cw, err := NewConnWriter(&conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.OpenTrace("s", "wire-tag"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Data("s", encodeSTRC(t, genTrace(t, "crc", 2_000))); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range evs {
		if ev.Str("sid") == "s" {
			if ev.Str("trace") != "wire-tag" {
				t.Fatalf("session event %q lost the wire trace tag: %v", ev.Name, ev.Fields)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no session events reached the recorder")
	}
}

// TestWireRefusesOtherVersions pins the single wire version: a stream or
// response header at any version but wireVersion is refused before a frame
// is read, so no session opens from it.
func TestWireRefusesOtherVersions(t *testing.T) {
	m, err := New(Options{Shards: 1, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A well-formed v3 body behind each header: only the version byte
	// differs from a stream the server accepts.
	var body bytes.Buffer
	cw, _ := NewConnWriter(&body)
	cw.Open("s")
	cw.Data("s", encodeSTRC(t, genTrace(t, "crc", 2_000)))
	cw.Close("s")
	frames := body.Bytes()[len(wireMagic)+1:]

	for _, ver := range []byte{1, 2, 4} {
		stream := append(append(wireMagic[:], ver), frames...)
		err := m.Ingest(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "unsupported stream version") {
			t.Fatalf("stream header v%d: Ingest returned %v, want an unsupported stream version error", ver, err)
		}
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("refused streams opened sessions: %v", got)
	}
	for _, ver := range []byte{2, 4} {
		_, err := ReadResponseStream(bytes.NewReader(append(wireMagic[:], ver)))
		if err == nil || !strings.Contains(err.Error(), "unsupported response version") {
			t.Fatalf("response header v%d: ReadResponseStream returned %v, want an unsupported response version error", ver, err)
		}
	}
}

// TestFleetBatchSpanAndHistograms pins the shard worker's flight deck: a
// fleet.batch begin/end pair per processed batch (session attr, never sid;
// deterministic work units on the end), and the wall-clock histogram
// families fleet_batch_seconds / fleet_queue_wait_seconds /
// fleet_conn_read_seconds populated on /metrics.
func TestFleetBatchSpanAndHistograms(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	m, err := New(Options{Shards: 1, Rec: obs.NewJSONL(&buf), Reg: reg, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}

	var conn bytes.Buffer
	cw, _ := NewConnWriter(&conn)
	cw.Open("s")
	cw.Data("s", encodeSTRC(t, genTrace(t, "crc", 4_000)))
	cw.Close("s")
	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	begins := map[string]obs.RawEvent{}
	ends := 0
	for _, ev := range evs {
		switch ev.Name {
		case "fleet.batch.begin":
			if ev.Str("sid") != "" {
				t.Fatalf("fleet.batch.begin carries an sid: %v", ev.Fields)
			}
			if ev.Str("session") != "s" {
				t.Fatalf("fleet.batch.begin names session %q", ev.Str("session"))
			}
			begins[ev.Str("span")] = ev
		case "fleet.batch.end":
			ends++
			b, ok := begins[ev.Str("span")]
			if !ok {
				t.Fatalf("fleet.batch.end span %q has no begin", ev.Str("span"))
			}
			if ev.Step != b.Step {
				t.Fatalf("span pair coordinates diverge: begin step %d, end step %d", b.Step, ev.Step)
			}
			if ev.Str("unit") != "accesses" || ev.Float("work") <= 0 {
				t.Fatalf("fleet.batch.end has no work unit: %v", ev.Fields)
			}
		}
	}
	if len(begins) == 0 || ends != len(begins) {
		t.Fatalf("%d begins, %d ends", len(begins), ends)
	}

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"fleet_batch_seconds_count ",
		"fleet_queue_wait_seconds_count ",
		"fleet_conn_read_seconds_count ",
		`fleet_batch_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, fam) {
			t.Fatalf("missing %q on /metrics:\n%s", fam, out)
		}
	}
	if reg.Histogram("fleet_batch_seconds").Count() == 0 {
		t.Fatal("fleet_batch_seconds never observed")
	}
	if reg.Histogram("fleet_queue_wait_seconds").Count() == 0 {
		t.Fatal("fleet_queue_wait_seconds never observed")
	}
	if reg.Histogram("fleet_conn_read_seconds").Count() == 0 {
		t.Fatal("fleet_conn_read_seconds never observed")
	}
}

// TestManagerStatusz pins the fleet introspection snapshot: per-session
// health, shard placement, in-flight depth and the daemon's own
// boundary-coherent progress, plus per-shard served counters.
func TestManagerStatusz(t *testing.T) {
	m, err := New(Options{Shards: 2, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []string{"a", "b"} {
		if err := m.Open(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(id, genTrace(t, "crc", 5_000)); err != nil {
			t.Fatal(err)
		}
		if err := m.Quiesce(id); err != nil {
			t.Fatal(err)
		}
	}

	st := m.Statusz()
	if len(st.Sessions) != 2 {
		t.Fatalf("statusz lists %d sessions, want 2", len(st.Sessions))
	}
	if st.Kernel != daemon.ServingKernel || st.Build.GoVersion != runtime.Version() {
		t.Fatalf("statusz reports kernel %q build %+v, want %q built by %s", st.Kernel, st.Build, daemon.ServingKernel, runtime.Version())
	}
	for i, want := range []string{"a", "b"} {
		row := st.Sessions[i]
		if row.ID != want {
			t.Fatalf("sessions not sorted: %v", st.Sessions)
		}
		if row.Health != "active" {
			t.Fatalf("session %s health %q", row.ID, row.Health)
		}
		if row.InFlight != 0 {
			t.Fatalf("quiesced session %s reports %d in flight", row.ID, row.InFlight)
		}
		if row.Shard < 0 || row.Shard >= 2 {
			t.Fatalf("session %s on shard %d", row.ID, row.Shard)
		}
		// 5000 accesses over 500-access windows: the status cell has been
		// refreshed at at least one boundary.
		if row.Daemon.Consumed == 0 || row.Daemon.Windows == 0 {
			t.Fatalf("session %s daemon snapshot empty: %+v", row.ID, row.Daemon)
		}
		if row.Daemon.Config == "" {
			t.Fatalf("session %s snapshot has no config", row.ID)
		}
		if row.Daemon.Kernel != st.Kernel || row.Daemon.Build != st.Build {
			t.Fatalf("session %s snapshot reports kernel %q build %+v, fleet %q %+v", row.ID, row.Daemon.Kernel, row.Daemon.Build, st.Kernel, st.Build)
		}
	}
	if len(st.Shards) != 2 {
		t.Fatalf("statusz lists %d shards, want 2", len(st.Shards))
	}
	var served uint64
	for _, sh := range st.Shards {
		served += sh.Served
	}
	if served == 0 {
		t.Fatal("no shard reports served items")
	}
}
