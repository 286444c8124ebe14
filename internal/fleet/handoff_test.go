package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// feedFrames decodes stream in frame-sized payloads the way the ingest frame
// loop does, handing each decoded batch to the session through
// submitDecoded; after calls the handoff's returned buffer, the one the next
// frame decodes into.
func feedFrames(t *testing.T, m *Manager, sid string, stream []byte, frame int, after func(next []trace.Access)) {
	t.Helper()
	pool := &batchPool{}
	var dec trace.StreamDecoder
	var accs []trace.Access
	for off := 0; off < len(stream); off += frame {
		var err error
		if accs, err = dec.Feed(stream[off:min(off+frame, len(stream))], accs[:0]); err != nil {
			t.Fatal(err)
		}
		if len(accs) == 0 {
			continue
		}
		if accs, err = m.submitDecoded(sid, accs, pool); err != nil {
			t.Fatal(err)
		}
		after(accs)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffDoesNotAliasQueuedBatches pins the copy-free ingest handoff:
// the frame loop does not copy a decoded batch before Submit, so the buffer
// it decodes the next frame into must never be one the shard still holds. The test overwrites that buffer, to its full capacity, right after
// every handoff — while earlier batches are still queued — and the session
// must still match its solo run in decisions, events and checkpoint bytes.
// Under -race an aliased buffer is also a reported data race.
func TestHandoffDoesNotAliasQueuedBatches(t *testing.T) {
	const window = 1_000
	tr := genTrace(t, "bilv", 60_000)
	stream := encodeSTRC(t, tr)
	base := t.TempDir()

	var soloLog bytes.Buffer
	soloDir := filepath.Join(base, "solo")
	solo, err := daemon.New(daemon.Options{Window: window, Dir: soloDir, Rec: obs.NewJSONL(&soloLog)})
	if err != nil {
		t.Fatal(err)
	}
	for accs := tr; len(accs) > 0; {
		n, _, err := solo.StepBatch(accs)
		if err != nil {
			t.Fatal(err)
		}
		accs = accs[n:]
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}

	var fleetLog bytes.Buffer
	fleetDir := filepath.Join(base, "fleet")
	m, err := New(Options{
		Shards:     2,
		QueueDepth: len(tr), // never wait: every batch can sit queued
		Dir:        fleetDir,
		Rec:        obs.NewJSONL(&fleetLog),
		Session:    daemon.Options{Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open("s"); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, m, "s", stream, 512, func(next []trace.Access) {
		next = next[:cap(next)]
		for i := range next {
			next[i] = trace.Access{Addr: 0xdead0000 + uint32(i), Kind: trace.DataWrite}
		}
	})
	d, err := m.Session("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if d.Consumed() != solo.Consumed() || !reflect.DeepEqual(d.Settled(), solo.Settled()) || !reflect.DeepEqual(d.Events(), solo.Events()) {
		t.Fatalf("fleet session diverged from its solo run: consumed %d vs %d, settled %+v vs %+v",
			d.Consumed(), solo.Consumed(), d.Settled(), solo.Settled())
	}
	want, err := obs.ReadEvents(&soloLog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadEvents(&fleetLog)
	if err != nil {
		t.Fatal(err)
	}
	if got = obs.FilterSession(got, "s"); !reflect.DeepEqual(got, want) {
		t.Fatalf("event log diverged from the solo run (%d vs %d events)", len(got), len(want))
	}
	fs, err := checkpoint.OpenFleetStore(fleetDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readCkptDir(t, fs.SessionDir("s")), readCkptDir(t, soloDir)) {
		t.Fatal("checkpoint files diverged from the solo run")
	}
}

// TestHandoffRecyclesBatchBuffers pins the recycling half: once a
// connection is running, every frame decodes into a buffer the shard
// returned. With QueueDepth 1 one batch is in flight at a time, so the
// whole stream uses exactly two buffers, and the pool comes up empty only
// at the first handoff.
func TestHandoffRecyclesBatchBuffers(t *testing.T) {
	tr := genTrace(t, "crc", 100_000)
	stream := encodeSTRC(t, tr)
	m, err := New(Options{Shards: 1, QueueDepth: 1, Session: daemon.Options{Window: 1_000}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Open("s"); err != nil {
		t.Fatal(err)
	}
	handoffs, fresh := 0, 0
	feedFrames(t, m, "s", stream, 1024, func(next []trace.Access) {
		handoffs++
		if cap(next) == 0 {
			fresh++
		}
	})
	d, err := m.Session("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
	if d.Consumed() != uint64(len(tr)) {
		t.Fatalf("consumed %d of %d accesses", d.Consumed(), len(tr))
	}
	if handoffs < 50 || fresh != 1 {
		t.Fatalf("%d handoffs needed %d fresh buffers, want 1", handoffs, fresh)
	}
}

// TestOpeningSessionsWritesOnlySessionDirs pins the open path's I/O: the
// fleet root holds nothing but sessions/ after 100 opens, each open leaves
// one empty store directory, and the tree lists exactly the opened IDs.
func TestOpeningSessionsWritesOnlySessionDirs(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{Dir: dir, Session: daemon.Options{Window: 1_000}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("tenant-%03d", i)
		if err := m.Open(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	names := func(d string) []string {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	if got := names(dir); !reflect.DeepEqual(got, []string{"sessions"}) {
		t.Fatalf("fleet root holds %q after 100 opens, want only sessions/", got)
	}
	if got := names(filepath.Join(dir, "sessions")); len(got) != 100 {
		t.Fatalf("sessions/ holds %d entries after 100 opens", len(got))
	}
	fs, err := checkpoint.OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := names(fs.SessionDir(id)); len(got) != 0 {
			t.Fatalf("opening %s wrote %q", id, got)
		}
	}
	got, err := fs.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("tree lists %d sessions, want the %d opened", len(got), len(ids))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
