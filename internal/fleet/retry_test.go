package fleet

import (
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/faults"
)

// cutConn stops reading a server-side connection after limit bytes: the
// ingest loop sees an unexpected EOF mid-frame, exactly like a connection
// reset partway through a stream. Writes pass through untouched.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > c.left {
		p = p[:c.left]
	}
	n, err := c.Conn.Read(p)
	c.left -= n
	return n, err
}

// retryServe accepts connections for m, cutting each of the first cuts
// connections after limit bytes. It returns the dial address.
func retryServe(t *testing.T, m *Manager, cuts int, limit int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var ordinal atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			ord := int(ordinal.Add(1)) - 1
			go func() {
				defer c.Close()
				if ord < cuts {
					m.IngestConn(&cutConn{Conn: c, left: limit})
					return
				}
				m.IngestConn(c)
			}()
		}
	}()
	return l.Addr().String()
}

// resumedFinal reopens a closed session's checkpoint directory and returns
// its restored decision log, settled outcome and consumed count — the
// durable view two deliveries can be compared by.
func resumedFinal(t *testing.T, dir string, window uint64) ([]checkpoint.Event, *checkpoint.Outcome, uint64) {
	t.Helper()
	d, err := daemon.New(daemon.Options{Window: window, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovered() {
		t.Fatalf("no checkpoint recovered from %s", dir)
	}
	return d.Events(), d.Settled(), d.Consumed()
}

// TestRetryClientRedeliversExactlyOnce cuts the first two connections
// mid-stream and lets the third through: the client retries on a seeded
// deterministic schedule, re-streaming from byte 0 each time, and the
// session's durable outcome is bit-identical to an uninterrupted solo run —
// however many times the wire died, every access was consumed exactly once.
func TestRetryClientRedeliversExactlyOnce(t *testing.T) {
	const window = 500
	const accesses = 20_000
	const cuts = 2
	base := t.TempDir()
	tr := genTrace(t, "crc", accesses)
	stream := encodeSTRC(t, tr)

	// Solo baseline, then reopened the same way the fleet session will be.
	soloDir := filepath.Join(base, "solo")
	soloBaseline(t, soloDir, window, tr)
	wantLog, wantSettled, wantConsumed := resumedFinal(t, soloDir, window)

	m, err := New(Options{
		Shards:  2,
		Dir:     filepath.Join(base, "fleet"),
		Session: daemon.Options{Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addr := retryServe(t, m, cuts, 2048)

	var sleeps []time.Duration
	rc := &RetryClient{
		Dial:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Seed:  42,
		Chunk: 512,
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	rep, err := rc.Run("s", stream)
	if err != nil {
		t.Fatalf("Run = %v (failures %v)", err, rep.Failures)
	}
	if rep.Attempts != cuts+1 || len(rep.Failures) != cuts {
		t.Fatalf("attempts = %d, failures = %v, want %d attempts", rep.Attempts, rep.Failures, cuts+1)
	}

	// The backoff schedule is a pure function of (Seed, sid, ordinal).
	if len(sleeps) != cuts {
		t.Fatalf("sleeps = %v, want %d", sleeps, cuts)
	}
	r := faults.NewRand(faults.Derive(42, "retry", "s"))
	for a, got := range sleeps {
		d := 50 * time.Millisecond << a
		want := d/2 + time.Duration(r.Uint64()%uint64(d))
		if got != want {
			t.Errorf("sleep[%d] = %v, want %v", a, got, want)
		}
	}

	// The done-ack means the server closed the session; its durable state
	// must match the uninterrupted solo run bit for bit.
	fs, err := checkpoint.OpenFleetStore(filepath.Join(base, "fleet"), 0)
	if err != nil {
		t.Fatal(err)
	}
	gotLog, gotSettled, gotConsumed := resumedFinal(t, fs.SessionDir("s"), window)
	if gotConsumed != wantConsumed {
		t.Errorf("consumed %d, want %d", gotConsumed, wantConsumed)
	}
	if !reflect.DeepEqual(gotSettled, wantSettled) {
		t.Errorf("settled %+v, want %+v", gotSettled, wantSettled)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("decision log diverged across %d redeliveries", cuts)
	}
}

// TestRetryClientHealsQuarantinedSession injects a one-shot worker panic:
// attempt one ends with the server's quarantined error frame (retryable by
// its code), and the reconnect resumes the session from its last good
// checkpoint, re-streams from byte 0 and settles bit-identical to a clean
// solo run.
func TestRetryClientHealsQuarantinedSession(t *testing.T) {
	const window = 500
	const accesses = 20_000
	base := t.TempDir()
	tr := genTrace(t, "bcnt", accesses)
	stream := encodeSTRC(t, tr)
	soloDir := filepath.Join(base, "solo")
	soloBaseline(t, soloDir, window, tr)
	wantLog, wantSettled, wantConsumed := resumedFinal(t, soloDir, window)

	// One meter instance shared across the session's lives: the count keeps
	// running past the trip, so the revived life reads clean.
	meter := faults.PanicMeter(12)
	m, err := New(Options{
		Shards:  1,
		Dir:     filepath.Join(base, "fleet"),
		Session: daemon.Options{Window: window},
		Configure: func(id string, o *daemon.Options) {
			o.Meter = func(cfg cache.Config, st cache.Stats) cache.Stats { return meter(cfg, st) }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addr := retryServe(t, m, 0, 0)

	rc := &RetryClient{
		Dial:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Seed:  7,
		Chunk: 1024,
		Sleep: func(time.Duration) {},
	}
	rep, err := rc.Run("v", stream)
	if err != nil {
		t.Fatalf("Run = %v (failures %v)", err, rep.Failures)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d (failures %v), want 2", rep.Attempts, rep.Failures)
	}
	if !strings.Contains(rep.Failures[0], "quarantined") && !strings.Contains(rep.Failures[0], "panic") {
		t.Errorf("first failure does not name the quarantine: %q", rep.Failures[0])
	}

	fs, err := checkpoint.OpenFleetStore(filepath.Join(base, "fleet"), 0)
	if err != nil {
		t.Fatal(err)
	}
	gotLog, gotSettled, gotConsumed := resumedFinal(t, fs.SessionDir("v"), window)
	if gotConsumed != wantConsumed || !reflect.DeepEqual(gotSettled, wantSettled) || !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("healed session diverged from solo (consumed %d vs %d)", gotConsumed, wantConsumed)
	}
}

// TestRetryClientTerminalErrors pins the giving-up edges: an admission
// refusal is terminal on the first attempt (its code says retrying cannot
// help), and a server that never acks exhausts MaxAttempts.
func TestRetryClientTerminalErrors(t *testing.T) {
	m, err := New(Options{
		Shards:           1,
		Session:          daemon.Options{Window: 200},
		AllocBudgetBytes: 2048, // room for exactly one session
		EnforceBudget:    true,
		PendingQueue:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Open("hog"); err != nil {
		t.Fatal(err)
	}
	addr := retryServe(t, m, 0, 0)

	stream := encodeSTRC(t, genTrace(t, "crc", 1_000))
	rc := &RetryClient{
		Dial:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Sleep: func(time.Duration) {},
	}
	rep, err := rc.Run("blocked", stream)
	if err == nil || !strings.Contains(err.Error(), "not admitted") {
		t.Fatalf("Run = %v, want a terminal admission error", err)
	}
	if rep.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (admission refusals are terminal)", rep.Attempts)
	}

	// A server that always cuts the connection before acking exhausts the
	// attempt budget, and the report says how hard it tried.
	var sleeps int
	rc = &RetryClient{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxAttempts: 3,
		Sleep:       func(time.Duration) { sleeps++ },
	}
	m2, err := New(Options{Shards: 1, Session: daemon.Options{Window: 200}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	addr2 := retryServe(t, m2, 1<<30, 64) // every connection cut at 64 bytes
	rc.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr2) }
	rep, err = rc.Run("never", stream)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("Run = %v, want exhaustion after 3 attempts", err)
	}
	if rep.Attempts != 3 || len(rep.Failures) != 3 || sleeps != 2 {
		t.Errorf("attempts %d failures %d sleeps %d, want 3/3/2", rep.Attempts, len(rep.Failures), sleeps)
	}

	// No dialer is an immediate error, not a panic.
	if _, err := (&RetryClient{}).Run("x", nil); err == nil {
		t.Error("nil Dial accepted")
	}
}
