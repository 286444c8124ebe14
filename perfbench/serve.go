package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selftune/internal/daemon"
	"selftune/internal/fleet"
	"selftune/internal/obs"
)

// roundStats is one fleet round's outcome.
type roundStats struct {
	// setup is fleet start plus the warm-up sessions; stream generation
	// is timed by the caller.
	setup time.Duration
	// wall runs from the first dial to the last done-ack of the timed
	// sessions; acked counts the accesses of the sessions acknowledged.
	wall  time.Duration
	acked uint64
	// delivery is each timed session's dial-to-done-ack time, seconds.
	delivery []float64
	// attempted and failed count every session streamed (warm-up
	// included) and those not acked or failing the output check.
	attempted, failed int
	// retried counts delivery attempts beyond the first; ackWaits holds
	// each attempt's time blocked reading after the half-close (traced
	// rounds only).
	retried  int
	ackWaits []float64
	// misses is each timed session's settled misses per window, as the
	// fleet reported it.
	misses []float64
	// reg holds the fleet's histograms (traced rounds only).
	reg *obs.Registry
}

func (r *roundStats) ingestPerSecond() float64 { return float64(r.acked) / r.wall.Seconds() }

// fleetRound starts a fleet (Shards=2, default window, persistence under
// dir) behind a loopback listener, streams the
// warm-up sessions and then the timed ones through two closed-loop
// RetryClient connections, closes the fleet and checks every session's
// report against its solo reference. traced sets the fleet's registry and
// session histograms and records spans into spans.
func fleetRound(dir string, seed int64, warm, timed []*tenant, traced bool, spans *spanLog) (*roundStats, error) {
	st := &roundStats{}
	t0 := time.Now()
	opts := fleetOptions(dir)
	if traced {
		st.reg = obs.NewRegistry()
		opts.Reg = st.reg
		opts.Session.Hists = daemon.NewSessionHists(st.reg)
	}
	m, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	srv, err := serve(m, spans)
	if err != nil {
		m.Close()
		return nil, err
	}
	cl := &clients{addr: srv.ln.Addr().String(), seed: seed, spans: spans}
	warmed := cl.deliver(warm)
	st.setup = time.Since(t0)

	runtime.GC() // set-up garbage is collected before, not during, the timed phase
	done := cl.deliver(timed)

	ingestErrs := srv.stop()
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("fleet close: %w", err)
	}
	for _, err := range ingestErrs {
		fmt.Fprintln(os.Stderr, "perfbench: ingest:", err)
	}

	reports := map[string]fleet.SessionReport{}
	for _, r := range m.Report().Sessions {
		reports[r.ID] = r
	}
	// check counts failures; misses, when non-nil, collects the reported
	// settled misses of the sessions that passed.
	check := func(ts []*tenant, ds []delivery, misses *[]float64) {
		for i, t := range ts {
			d := ds[i]
			st.attempted++
			st.retried += d.attempts - 1
			st.ackWaits = append(st.ackWaits, d.ackWaits...)
			got, ok := reports[t.id]
			if d.err != nil || !ok || !t.matches(got) {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: session %s failed its check: delivery error %v, reported %v, got %+v want %+v\n",
					t.id, d.err, ok, got, t.want)
				continue
			}
			if misses != nil {
				*misses = append(*misses, got.MissesPerWindow)
			}
		}
	}
	check(warm, warmed, nil)
	check(timed, done, &st.misses)

	var first, last time.Time
	for i, d := range done {
		if i == 0 || d.start.Before(first) {
			first = d.start
		}
		if d.end.After(last) {
			last = d.end
		}
		st.delivery = append(st.delivery, d.end.Sub(d.start).Seconds())
		if d.err == nil {
			st.acked += uint64(timed[i].n)
		}
	}
	st.wall = last.Sub(first)
	return st, nil
}

// fleetOptions is the fleet every round runs: Shards=2, the default
// window, persistence under dir.
func fleetOptions(dir string) fleet.Options {
	return fleet.Options{
		Shards: maxParallel,
		Dir:    dir,
		// Each session persists once, at its close, right before the
		// done-ack. The periodic cadence is off: on a disk the fsync of
		// every eighth window dominated the run-to-run spread, and the
		// isolated checkpoint replay of the traced run measures it.
		Session: daemon.Options{CheckpointEvery: math.MaxUint64},
	}
}

// server accepts loopback connections and serves each with IngestConn.
type server struct {
	ln    net.Listener
	conns sync.WaitGroup
	done  chan struct{}
	mu    sync.Mutex
	errs  []error
}

func serve(m *fleet.Manager, spans *spanLog) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func() {
				defer s.conns.Done()
				sc := &serverConn{Conn: c, spans: spans, start: time.Now()}
				var rw net.Conn = c
				if spans != nil {
					rw = sc
				}
				if err := m.IngestConn(rw); err != nil {
					s.mu.Lock()
					s.errs = append(s.errs, err)
					s.mu.Unlock()
				}
				c.Close()
				sc.finish()
			}()
		}
	}()
	return s, nil
}

// stop closes the listener, waits for the accept loop and every connection
// to end, and returns the connection-level ingest errors.
func (s *server) stop() []error {
	s.ln.Close()
	<-s.done
	s.conns.Wait()
	return s.errs
}

// serverConn records the server side of a traced connection: one
// ingest.conn span around IngestConn with an ingest.read child per read.
// The session id comes from the open frame at the head of the stream.
type serverConn struct {
	net.Conn
	spans *spanLog
	start time.Time
	head  []byte
	reads [][2]time.Time
}

func (c *serverConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.reads = append(c.reads, [2]time.Time{t0, time.Now()})
	if room := 64 - len(c.head); room > 0 {
		c.head = append(c.head, p[:min(n, room)]...)
	}
	return n, err
}

func (c *serverConn) finish() {
	if c.spans == nil {
		return
	}
	sid := openedSession(c.head)
	id := c.spans.id()
	c.spans.add(id, 0, sid, "ingest.conn", c.start, time.Now())
	for _, r := range c.reads {
		c.spans.add(0, id, sid, "ingest.read", r[0], r[1])
	}
}

// openedSession parses the session id out of a wire stream's first frame
// (5-byte header, open frame type, uvarint id length, id).
func openedSession(head []byte) string {
	if len(head) < 7 || head[5] != 0x01 {
		return "?"
	}
	n, k := binary.Uvarint(head[6:])
	if k <= 0 || 6+k+int(n) > len(head) {
		return "?"
	}
	return string(head[6+k : 6+k+int(n)])
}

// clients streams sessions to the server: maxParallel closed-loop
// connections, each waiting for its session's done-ack before dialing the
// next one.
type clients struct {
	addr  string
	seed  int64
	spans *spanLog
}

// delivery is one session's client-side outcome.
type delivery struct {
	start, end time.Time
	attempts   int
	ackWaits   []float64
	err        error
}

func (c *clients) deliver(ts []*tenant) []delivery {
	out := make([]delivery, len(ts))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for k := 0; k < maxParallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				out[i] = c.one(ts[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (c *clients) one(t *tenant) delivery {
	var d delivery
	sid := c.spans.id()
	rc := &fleet.RetryClient{
		Seed:  uint64(c.seed),
		Chunk: wireChunk,
		Dial: func() (net.Conn, error) {
			t0 := time.Now()
			conn, err := net.Dial("tcp", c.addr)
			if err != nil || c.spans == nil {
				return conn, err
			}
			return &clientConn{Conn: conn, d: &d, spans: c.spans, parent: sid, trace: t.id, dialed: t0}, nil
		},
	}
	d.start = time.Now()
	rep, err := rc.Run(t.id, t.wire)
	d.end = time.Now()
	d.err = err
	d.attempts = rep.Attempts
	c.spans.add(sid, 0, t.id, "session", d.start, d.end)
	return d
}

// clientConn records one traced delivery attempt: client.stream from dial
// to the half-close, client.ack_wait from there to the last read (the
// done-ack and EOF).
type clientConn struct {
	net.Conn
	d            *delivery
	spans        *spanLog
	parent       uint64
	trace        string
	dialed, half time.Time
	lastRead     time.Time
}

// CloseWrite half-closes the connection, as RetryClient does after its
// close frame.
func (c *clientConn) CloseWrite() error {
	c.half = time.Now()
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead = time.Now()
	return n, err
}

func (c *clientConn) Close() error {
	end := time.Now()
	if c.half.IsZero() {
		c.spans.add(0, c.parent, c.trace, "client.stream", c.dialed, end)
		return c.Conn.Close()
	}
	c.spans.add(0, c.parent, c.trace, "client.stream", c.dialed, c.half)
	acked := c.lastRead
	if acked.Before(c.half) {
		acked = end
	}
	c.spans.add(0, c.parent, c.trace, "client.ack_wait", c.half, acked)
	c.d.ackWaits = append(c.d.ackWaits, acked.Sub(c.half).Seconds())
	return c.Conn.Close()
}
