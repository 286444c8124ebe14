package fleet

import (
	"bytes"
	"strings"
	"testing"

	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// encodeSTRC renders accesses as the on-disk/wire trace codec bytes.
func encodeSTRC(t *testing.T, accs []trace.Access) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.Encode(&b, accs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestIngestRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Options{Shards: 2, Reg: reg, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ta := genTrace(t, "crc", 20_000)
	tb := genTrace(t, "bcnt", 30_000)
	ba, bb := encodeSTRC(t, ta), encodeSTRC(t, tb)

	// Interleave the two sessions' streams with deliberately awkward
	// chunking: 7-byte frames for a (splitting records mid-varint), big
	// frames for b. Session a is closed explicitly; b rides on EOF.
	var conn bytes.Buffer
	cw, err := NewConnWriter(&conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Open("a"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Open("b"); err != nil {
		t.Fatal(err)
	}
	for len(ba) > 0 || len(bb) > 0 {
		if len(ba) > 0 {
			n := 7
			if n > len(ba) {
				n = len(ba)
			}
			if err := cw.Data("a", ba[:n]); err != nil {
				t.Fatal(err)
			}
			ba = ba[n:]
		}
		if len(bb) > 0 {
			n := 16 << 10
			if n > len(bb) {
				n = len(bb)
			}
			if err := cw.Data("b", bb[:n]); err != nil {
				t.Fatal(err)
			}
			bb = bb[n:]
		}
	}
	if err := cw.Close("a"); err != nil {
		t.Fatal(err)
	}

	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("sessions still live after ingest: %v", got)
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleet_session_consumed{session="a"} 20000`,
		`fleet_session_consumed{session="b"} 30000`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %s in:\n%s", want, b.String())
		}
	}
}

func TestIngestCorruptPayloadFailsOnlyThatSession(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Options{Shards: 1, Reg: reg, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	good := encodeSTRC(t, genTrace(t, "crc", 10_000))
	var conn bytes.Buffer
	cw, _ := NewConnWriter(&conn)
	cw.Open("bad")
	cw.Open("good")
	cw.Data("bad", []byte("this is not an STRC stream"))
	cw.Data("good", good[:len(good)/2])
	cw.Data("bad", []byte("more garbage for a dead session"))
	cw.Data("good", good[len(good)/2:])
	if cw.err != nil {
		t.Fatal(cw.err)
	}

	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatalf("a payload error must not fail the connection: %v", err)
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("sessions still live after ingest: %v", got)
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fleet_session_consumed{session="good"} 10000`) {
		t.Fatalf("the healthy session did not finish:\n%s", b.String())
	}
}

func TestIngestTruncatedSessionStreamIsThatSessionsError(t *testing.T) {
	m, err := New(Options{Shards: 1, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	good := encodeSTRC(t, genTrace(t, "crc", 1_000))
	var conn bytes.Buffer
	cw, _ := NewConnWriter(&conn)
	cw.Open("t")
	cw.Data("t", good[:len(good)-1]) // final record cut short
	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatalf("a truncated session stream must not fail the connection: %v", err)
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("sessions still live after ingest: %v", got)
	}
}

func TestIngestFrameErrorsEndTheConnection(t *testing.T) {
	newM := func() *Manager {
		m, err := New(Options{Shards: 1, Session: daemon.Options{Window: 500}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}

	if err := newM().Ingest(bytes.NewReader([]byte("JUNK?"))); err == nil {
		t.Fatal("bad stream magic accepted")
	}

	var conn bytes.Buffer
	cw, _ := NewConnWriter(&conn)
	cw.Open("a")
	conn.WriteByte(0x7f) // unknown frame type
	if err := newM().Ingest(bytes.NewReader(conn.Bytes())); err == nil {
		t.Fatal("unknown frame type accepted")
	}

	conn.Reset()
	cw, _ = NewConnWriter(&conn)
	cw.Data("ghost", []byte("x"))
	if err := newM().Ingest(bytes.NewReader(conn.Bytes())); err == nil {
		t.Fatal("data before open accepted")
	}

	conn.Reset()
	cw, _ = NewConnWriter(&conn)
	cw.Open("a")
	cw.Open("a")
	if err := newM().Ingest(bytes.NewReader(conn.Bytes())); err == nil {
		t.Fatal("duplicate open on one connection accepted")
	}

	// A frame error mid-connection still closes the sessions the
	// connection had opened.
	conn.Reset()
	cw, _ = NewConnWriter(&conn)
	cw.Open("a")
	conn.WriteByte(0xff)
	m := newM()
	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err == nil {
		t.Fatal("frame error accepted")
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("connection-owned sessions leaked: %v", got)
	}
}

func TestIngestOpenConflictLeavesLiveSessionAlone(t *testing.T) {
	m, err := New(Options{Shards: 1, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Open("held"); err != nil {
		t.Fatal(err)
	}

	var conn bytes.Buffer
	cw, _ := NewConnWriter(&conn)
	cw.Open("held")
	cw.Data("held", encodeSTRC(t, genTrace(t, "crc", 5_000)))
	if err := m.Ingest(bytes.NewReader(conn.Bytes())); err != nil {
		t.Fatalf("open conflict must not fail the connection: %v", err)
	}
	d, err := m.Session("held")
	if err != nil {
		t.Fatal("the pre-existing session was closed by a conflicting connection")
	}
	if d.Consumed() != 0 {
		t.Fatalf("a conflicting connection fed %d accesses into a session it does not own", d.Consumed())
	}
}

// FuzzIngest throws arbitrary bytes at the connection handler: whatever the
// corruption — header, frame structure, lengths, payload codec — the
// manager must reject or absorb it without panicking, deadlocking, or
// leaking live sessions.
func FuzzIngest(f *testing.F) {
	valid := func(build func(cw *ConnWriter)) []byte {
		var b bytes.Buffer
		cw, _ := NewConnWriter(&b)
		build(cw)
		return b.Bytes()
	}
	f.Add([]byte("STFW\x01"))
	f.Add([]byte("STFW\x02\x01\x01s\x03\x01s")) // a retired v2 open/close
	f.Add(valid(func(cw *ConnWriter) {
		cw.Open("s")
		var tr bytes.Buffer
		trace.Encode(&tr, []trace.Access{{Addr: 4}, {Addr: 8, Kind: trace.DataRead}})
		cw.Data("s", tr.Bytes())
		cw.Close("s")
	}))
	f.Add(valid(func(cw *ConnWriter) {
		cw.Open("a")
		cw.Data("a", []byte("garbage payload"))
		cw.Open("b")
	}))
	f.Add([]byte("JUNK"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := New(Options{Shards: 1, QueueDepth: 256, Session: daemon.Options{Window: 64, MaxEvents: 8}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		_ = m.Ingest(bytes.NewReader(data))
		if got := m.Sessions(); len(got) != 0 {
			t.Fatalf("ingest leaked live sessions: %v", got)
		}
	})
}
