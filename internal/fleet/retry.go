package fleet

import (
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"time"

	"selftune/internal/faults"
	"selftune/internal/obs"
)

// RetryClient delivers one session's STRC trace to a fleet server and
// survives the failures deployment brings: a dropped connection, a mid-frame
// reset, a server-side quarantine. Every attempt redials and re-streams the
// whole trace from byte 0 — the server discards the consumed prefix
// (Submit's resume contract), so however many times the stream is cut the
// session consumes each access exactly once. Delivery succeeds only on the
// server's done acknowledgement for the session's close frame; an EOF
// without it (the connection died after the client's last write, before the
// server finished) is just another retryable failure.
//
// The backoff schedule is seeded and deterministic: a pure function of
// Seed, the session id and the attempt ordinal (exponential with
// multiplicative jitter), so a retry storm reproduces bit-for-bit in tests
// and across fleet restarts. Sleep is injectable so tests run wall-clock
// free — pacing is the one place wall-clock is allowed, since it never
// touches tuning decisions.
type RetryClient struct {
	// Dial opens a connection to the server. Required.
	Dial func() (net.Conn, error)
	// Seed roots the jittered backoff schedule.
	Seed uint64
	// MaxAttempts bounds delivery attempts. Default 8.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay, doubling per attempt
	// and jittered to [½d, 1½d). Default 50ms; capped at 5s per wait.
	BaseBackoff time.Duration
	// Chunk is the data-frame payload size. Default 64 KiB.
	Chunk int
	// Sleep replaces time.Sleep between attempts (tests). nil sleeps.
	Sleep func(time.Duration)
	// Trace is an opaque tag carried in the session's open frame: the
	// server stamps it onto the session's events and echoes it in
	// fleet.open, tying this client's delivery attempts to the server-side
	// session story. Empty means untagged.
	Trace string
	// Rec receives one "client.attempt" event per delivery attempt (the
	// attempt ordinal is the Step coordinate), tagged with the session and
	// Trace. nil records nothing.
	Rec obs.Recorder
}

// RetryReport summarises one delivery.
type RetryReport struct {
	// Attempts is how many connections were tried (≥1).
	Attempts int
	// Failures records each failed attempt's error, in order.
	Failures []string
}

// Run delivers stream (a whole STRC trace) as session sid, retrying per the
// client's policy. The report is returned alongside either outcome.
func (c *RetryClient) Run(sid string, stream []byte) (*RetryReport, error) {
	rep := &RetryReport{}
	if c.Dial == nil {
		return rep, fmt.Errorf("fleet: RetryClient needs a Dial function")
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	r := faults.NewRand(faults.Derive(c.Seed, "retry", sid))
	rec := obs.OrNop(c.Rec)
	var last error
	for a := 0; a < attempts; a++ {
		rep.Attempts++
		err, terminal := c.attempt(sid, stream)
		if rec.Enabled() {
			fields := []slog.Attr{slog.String("session", sid), slog.Bool("ok", err == nil)}
			if c.Trace != "" {
				fields = append(fields, slog.String("trace", c.Trace))
			}
			if err != nil {
				fields = append(fields, slog.String("error", err.Error()), slog.Bool("terminal", terminal))
			}
			rec.Record(obs.Event{Name: "client.attempt", Step: uint64(a), Fields: fields})
		}
		if err == nil {
			return rep, nil
		}
		rep.Failures = append(rep.Failures, err.Error())
		last = err
		if terminal {
			return rep, err
		}
		if a == attempts-1 {
			break
		}
		d := base << a
		if max := 5 * time.Second; d > max {
			d = max
		}
		// Jitter to [½d, 1½d): deterministic in (Seed, sid, ordinal).
		sleep(d/2 + time.Duration(r.Uint64()%uint64(d)))
	}
	return rep, fmt.Errorf("fleet: session %q not delivered after %d attempts: %w", sid, rep.Attempts, last)
}

// attempt is one dial-open-stream-close round trip. terminal reports a
// failure no reconnect can heal (admission refusal, terminal session
// failure, a server that rejects the protocol).
func (c *RetryClient) attempt(sid string, stream []byte) (err error, terminal bool) {
	conn, err := c.Dial()
	if err != nil {
		return err, false
	}
	defer conn.Close()
	cw, err := NewConnWriter(conn)
	if err != nil {
		return err, false
	}
	if err := cw.OpenTrace(sid, c.Trace); err != nil {
		return err, false
	}
	if err := cw.Stream(sid, bytes.NewReader(stream), c.Chunk); err != nil {
		return err, false
	}
	if err := cw.Close(sid); err != nil {
		return err, false
	}
	// Half-close so the server sees EOF and finishes; then its response
	// stream decides the attempt.
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	rs, err := ReadResponseStream(conn)
	if err != nil {
		return err, false
	}
	for _, we := range rs.Errors {
		if we.SID != sid {
			continue
		}
		err := fmt.Errorf("fleet: server: session %q: %s", sid, we.Msg)
		return err, !we.Retryable()
	}
	if !rs.Acked(sid) {
		return fmt.Errorf("fleet: session %q: connection ended without a close acknowledgement", sid), false
	}
	return nil, false
}
