package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"syscall"
	"time"

	"selftune/internal/trace"
)

// The fleet wire protocol multiplexes many sessions' trace streams over one
// connection. A stream is the "STFW" magic plus a version byte, then frames:
//
//	open:  0x01, uvarint sid length, sid bytes, uvarint t, t trace bytes (v3; v2 has no trace field)
//	data:  0x02, uvarint sid length, sid bytes, uvarint n, n payload bytes
//	close: 0x03, uvarint sid length, sid bytes
//	error: 0x04, uvarint sid length, sid bytes, uvarint n, 1 code byte + n-1 message bytes
//	done:  0x05, uvarint sid length, sid bytes
//
// The error and done frames flow server→client only (IngestConn): the
// server opens its own header stream lazily before its first frame. An
// error frame reports an admission rejection or per-session failure with
// the sid, a one-byte error code (see ErrCode*) and a human-readable
// reason, so a client learns *why* its session died — and, from the code,
// whether a reconnect-and-re-stream can heal it. A done frame acknowledges
// a close frame the server completed cleanly, which is what lets a
// reconnecting client distinguish "delivered" from "the connection died
// after my last write" (version 2 added the code byte and the done frame;
// version 3 added the open frame's trace tag — an opaque client-chosen
// string the server stamps onto the session's events for end-to-end
// correlation; empty means untagged). The server ingests versions 2 and 3.
//
// A session's concatenated data payloads form exactly one STRC trace stream
// (magic, version, varint-coded records — the on-disk codec is the wire
// format), cut at arbitrary byte positions: the server reassembles it with
// trace.StreamDecoder, so a client can forward a trace file in any chunking
// without re-framing records. Payload corruption is a per-session failure —
// the session is closed and counted, the connection and its other sessions
// continue. Frame-level corruption (bad magic, unknown frame type, oversized
// length) ends the connection, closing its remaining sessions gracefully.
var wireMagic = [4]byte{'S', 'T', 'F', 'W'}

const (
	wireVersion = 3
	// wireVersionMin is the oldest stream version the server still ingests
	// (v2 lacks only the open frame's trace field).
	wireVersionMin = 2

	frameOpen  = 0x01
	frameData  = 0x02
	frameClose = 0x03
	frameError = 0x04
	frameDone  = 0x05

	// maxSIDLen and maxPayload bound hostile allocations; both are far
	// above anything a real client sends.
	maxSIDLen  = 1 << 10
	maxPayload = 1 << 22
)

// Error-frame codes classify server→client failures so a client can tell
// the retryable states from the terminal ones without parsing messages.
const (
	// ErrCodeGeneric is any failure without a more specific class —
	// payload corruption, a persistence error, a duplicate open.
	ErrCodeGeneric = 0
	// ErrCodeAdmission marks an open refused by admission control
	// (*AdmissionError); retrying cannot help until capacity frees.
	ErrCodeAdmission = 1
	// ErrCodeQuarantined marks a session quarantined after a contained
	// failure: the server closed it at its last good checkpoint, and a
	// reconnect that re-opens and re-streams from byte 0 resumes it.
	ErrCodeQuarantined = 2
	// ErrCodeFailed marks a session in the terminal Failed state.
	ErrCodeFailed = 3
)

// errCode classifies a server-side failure for the wire.
func errCode(err error) byte {
	var aerr *AdmissionError
	if errors.As(err, &aerr) {
		return ErrCodeAdmission
	}
	var herr *HealthError
	if errors.As(err, &herr) {
		if herr.State == Failed {
			return ErrCodeFailed
		}
		return ErrCodeQuarantined
	}
	return ErrCodeGeneric
}

// ConnWriter is the client half: it frames session opens, trace bytes and
// closes onto one writer.
type ConnWriter struct {
	w   io.Writer
	err error
}

// NewConnWriter writes the stream header and returns the framer.
func NewConnWriter(w io.Writer) (*ConnWriter, error) {
	if _, err := w.Write(append(wireMagic[:], wireVersion)); err != nil {
		return nil, err
	}
	return &ConnWriter{w: w}, nil
}

// frame writes one frame; the first error is sticky.
func (c *ConnWriter) frame(kind byte, sid string, payload []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(sid) == 0 || len(sid) > maxSIDLen {
		c.err = fmt.Errorf("fleet: session id length %d out of range", len(sid))
		return c.err
	}
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = kind
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(sid)))
	buf := append(hdr[:n], sid...)
	if kind == frameData || kind == frameOpen {
		// Open frames carry the uvarint-prefixed trace tag since v3 (empty
		// for an untagged session), with the same shape as a data payload.
		var ln [binary.MaxVarintLen64]byte
		buf = append(buf, ln[:binary.PutUvarint(ln[:], uint64(len(payload)))]...)
		buf = append(buf, payload...)
	}
	_, c.err = c.w.Write(buf)
	return c.err
}

// Open announces an untagged session.
func (c *ConnWriter) Open(sid string) error { return c.frame(frameOpen, sid, nil) }

// OpenTrace announces a session carrying a client-chosen trace tag the
// server stamps onto the session's events ("" is exactly Open).
func (c *ConnWriter) OpenTrace(sid, trce string) error {
	if len(trce) > maxSIDLen {
		c.err = fmt.Errorf("fleet: trace tag length %d out of range", len(trce))
		return c.err
	}
	return c.frame(frameOpen, sid, []byte(trce))
}

// Data carries a chunk of the session's STRC stream (any byte boundary).
func (c *ConnWriter) Data(sid string, chunk []byte) error {
	if len(chunk) == 0 {
		return c.err
	}
	if len(chunk) > maxPayload {
		c.err = fmt.Errorf("fleet: payload %d exceeds the %d frame limit", len(chunk), maxPayload)
		return c.err
	}
	return c.frame(frameData, sid, chunk)
}

// Close ends a session.
func (c *ConnWriter) Close(sid string) error { return c.frame(frameClose, sid, nil) }

// Stream forwards an entire STRC stream from r as data frames of at most
// chunk bytes — the whole client side of replaying a trace file into a
// fleet: Open, Stream, Close.
func (c *ConnWriter) Stream(sid string, r io.Reader, chunk int) error {
	if chunk <= 0 || chunk > maxPayload {
		chunk = 64 << 10
	}
	buf := make([]byte, chunk)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if werr := c.Data(sid, buf[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ingestSession is one connection's view of a session it opened.
type ingestSession struct {
	dec    *trace.StreamDecoder
	failed bool
}

// responder writes server→client error frames, emitting its own stream
// header lazily before the first frame so a connection that never fails
// carries no response bytes at all. nil is a valid (silent) responder.
type responder struct {
	w        io.Writer
	mu       sync.Mutex
	wroteHdr bool
	err      error // first write failure; silently drops the rest
}

// header writes the lazy response-stream header. Callers hold r.mu.
func (r *responder) header() bool {
	if r.err != nil {
		return false
	}
	if !r.wroteHdr {
		if _, err := r.w.Write(append(wireMagic[:], wireVersion)); err != nil {
			r.err = err
			return false
		}
		r.wroteHdr = true
	}
	return true
}

// sendError reports one session's failure to the client, classified by err.
func (r *responder) sendError(sid string, code byte, msg string) {
	if r == nil || r.w == nil || sid == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.header() {
		return
	}
	buf := []byte{frameError}
	var ln [binary.MaxVarintLen64]byte
	buf = append(buf, ln[:binary.PutUvarint(ln[:], uint64(len(sid)))]...)
	buf = append(buf, sid...)
	msgb := []byte(msg)
	if len(msgb) > maxPayload-1 {
		msgb = msgb[:maxPayload-1]
	}
	buf = append(buf, ln[:binary.PutUvarint(ln[:], uint64(len(msgb)+1))]...)
	buf = append(buf, code)
	buf = append(buf, msgb...)
	_, r.err = r.w.Write(buf)
}

// sendDone acknowledges a close frame the server completed cleanly.
func (r *responder) sendDone(sid string) {
	if r == nil || r.w == nil || sid == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.header() {
		return
	}
	buf := []byte{frameDone}
	var ln [binary.MaxVarintLen64]byte
	buf = append(buf, ln[:binary.PutUvarint(ln[:], uint64(len(sid)))]...)
	buf = append(buf, sid...)
	_, r.err = r.w.Write(buf)
}

// WireError is one server→client error frame, decoded.
type WireError struct {
	SID string
	// Code classifies the failure (ErrCode*).
	Code byte
	Msg  string
}

// Retryable reports whether a reconnect that re-opens the session and
// re-streams from byte 0 can heal this failure.
func (e WireError) Retryable() bool { return e.Code == ErrCodeQuarantined }

// Responses is a server's decoded response stream.
type Responses struct {
	// Errors holds the error frames, in arrival order.
	Errors []WireError
	// Done lists the sessions whose close frames the server completed
	// cleanly — the per-session delivery acknowledgement.
	Done []string
}

// Acked reports whether the server acknowledged sid's close.
func (r *Responses) Acked(sid string) bool {
	for _, id := range r.Done {
		if id == sid {
			return true
		}
	}
	return false
}

// ReadResponses drains the server's response stream until EOF and returns
// the error frames it carried (done acknowledgements are skipped; use
// ReadResponseStream for those). A server that had nothing to report writes
// no bytes at all, which decodes as zero responses.
func ReadResponses(r io.Reader) ([]WireError, error) {
	rs, err := ReadResponseStream(r)
	if rs == nil {
		return nil, err
	}
	return rs.Errors, err
}

// ReadResponseStream drains the server's response stream until EOF and
// returns the error frames and done acknowledgements it carried.
func ReadResponseStream(r io.Reader) (*Responses, error) {
	br := newByteReader(r)
	out := &Responses{}
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return out, nil
		}
		return nil, fmt.Errorf("fleet: short response header: %w", err)
	}
	if [4]byte(hdr[:4]) != wireMagic {
		return nil, fmt.Errorf("fleet: bad response magic %q", hdr[:4])
	}
	if hdr[4] < wireVersionMin || hdr[4] > wireVersion {
		return nil, fmt.Errorf("fleet: unsupported response version %d", hdr[4])
	}
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if kind != frameError && kind != frameDone {
			return out, fmt.Errorf("fleet: unexpected response frame type 0x%02x", kind)
		}
		sid, err := readString(br, maxSIDLen)
		if err != nil {
			return out, fmt.Errorf("fleet: bad response frame: %w", err)
		}
		switch kind {
		case frameError:
			payload, err := readBytes(br, maxPayload)
			if err != nil {
				return out, fmt.Errorf("fleet: bad response frame: %w", err)
			}
			we := WireError{SID: sid}
			if len(payload) > 0 {
				we.Code = payload[0]
				we.Msg = string(payload[1:])
			}
			out.Errors = append(out.Errors, we)
		case frameDone:
			out.Done = append(out.Done, sid)
		}
	}
}

// Ingest serves one connection: it reads frames from r until EOF or a
// frame-level error, feeding each session's reassembled trace into the
// fleet. Sessions opened on this connection and still open when it ends are
// closed gracefully (final checkpoint persisted), so a client may simply
// hang up after its last byte. The returned error is the frame-level
// failure, nil on a clean EOF; per-session payload errors are telemetry
// plus that session's closure, never a connection failure.
func (m *Manager) Ingest(r io.Reader) error { return m.ingest(r, nil) }

// IngestConn is Ingest over a bidirectional connection: admission
// rejections and per-session failures are reported back to the client as
// error frames, so a refused Open carries its reason instead of dying
// silently. The server's response stream shares the connection; it is
// header-plus-error-frames only, written lazily. A client may close its
// socket without reading the acks: the reset that follows is a clean end
// once no session it opened is still live.
func (m *Manager) IngestConn(rw io.ReadWriter) error {
	return m.ingest(rw, &responder{w: rw})
}

// deadlineReader is the subset of net.Conn the idle timeout needs.
type deadlineReader interface {
	SetReadDeadline(time.Time) error
}

func (m *Manager) ingest(r io.Reader, resp *responder) error {
	br := newByteReader(r)
	if m.opts.ReadTimeout > 0 {
		if dr, ok := r.(deadlineReader); ok {
			br.deadline = m.opts.ReadTimeout
			br.conn = dr
		}
	}
	err := m.ingestFrames(br, resp)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		if reg := m.opts.Reg; reg != nil {
			reg.Counter("fleet_conn_timeouts_total").Inc()
		}
		m.emit("fleet.conn_timeout", slog.String("error", err.Error()))
		err = fmt.Errorf("fleet: connection idle past %v: %w", m.opts.ReadTimeout, err)
	}
	return err
}

// ingestFrames is the frame loop; its deferred cleanup gracefully closes
// whatever the connection still owned when it ended (EOF, frame corruption
// or idle timeout alike).
func (m *Manager) ingestFrames(br *byteReader, resp *responder) error {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("fleet: short stream header: %w", err)
	}
	if [4]byte(hdr[:4]) != wireMagic {
		return fmt.Errorf("fleet: bad stream magic %q", hdr[:4])
	}
	ver := hdr[4]
	if ver < wireVersionMin || ver > wireVersion {
		return fmt.Errorf("fleet: unsupported stream version %d", ver)
	}

	owned := map[string]*ingestSession{}
	defer func() {
		for sid, is := range owned {
			if is == nil || is.failed {
				continue
			}
			if err := m.CloseSession(sid); err != nil {
				m.emit("fleet.ingest_error",
					slog.String("session", sid),
					slog.String("error", err.Error()))
			}
		}
	}()

	// failSession closes a session whose payload went bad; the connection
	// lives on for its other sessions. The entry stays in owned (marked
	// failed) so later frames for the dead session drain politely instead
	// of tripping the before-open check.
	failSession := func(sid string, is *ingestSession, err error) {
		is.failed = true
		resp.sendError(sid, errCode(err), err.Error())
		m.emit("fleet.ingest_error",
			slog.String("session", sid),
			slog.String("error", err.Error()))
		// Closing at the last good checkpoint is what makes a quarantined
		// session's failure retryable over the wire: the client's re-open
		// resumes from that checkpoint and re-streams from byte 0.
		if cerr := m.CloseSession(sid); cerr != nil {
			m.emit("fleet.ingest_error",
				slog.String("session", sid),
				slog.String("error", cerr.Error()))
		}
	}

	var accs []trace.Access
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			// Clean end: a truncated per-session stream is that
			// session's failure, surfaced before the graceful closes.
			for sid, is := range owned {
				if is == nil || is.failed {
					continue
				}
				if err := is.dec.Finish(); err != nil {
					failSession(sid, is, err)
				}
			}
			return nil
		}
		if err != nil {
			if errors.Is(err, syscall.ECONNRESET) && settled(owned) {
				// A client that hangs up with acks still unread resets
				// the connection instead of ending it. Once every session
				// it opened has been closed and answered, that is a
				// clean end, just like EOF.
				return nil
			}
			return err
		}
		sid, err := readString(br, maxSIDLen)
		if err != nil {
			return fmt.Errorf("fleet: bad frame: %w", err)
		}
		switch kind {
		case frameOpen:
			var trce string
			if ver >= 3 {
				// v3 opens carry the uvarint-prefixed trace tag; a v2
				// stream's open ends at the sid (untagged).
				tb, err := readBytes(br, maxSIDLen)
				if err != nil {
					return fmt.Errorf("fleet: bad open frame: %w", err)
				}
				trce = string(tb)
			}
			if _, dup := owned[sid]; dup {
				return fmt.Errorf("fleet: duplicate open for session %q", sid)
			}
			if err := m.OpenTraced(sid, trce); err != nil {
				// The id may be live on another connection, invalid, or
				// refused by admission control; either way this connection
				// must not feed it, and the client is told why.
				owned[sid] = nil
				resp.sendError(sid, errCode(err), err.Error())
				m.emit("fleet.ingest_error",
					slog.String("session", sid),
					slog.String("error", err.Error()))
				continue
			}
			owned[sid] = &ingestSession{dec: &trace.StreamDecoder{}}
		case frameData:
			t0 := time.Now()
			payload, err := readBytes(br, maxPayload)
			if err != nil {
				return fmt.Errorf("fleet: bad data frame: %w", err)
			}
			// Transport latency only: the payload read has no deterministic
			// work unit, so it is histogram-only (no span twin).
			m.hists.read().ObserveSince(t0)
			is, ok := owned[sid]
			if !ok {
				return fmt.Errorf("fleet: data for session %q before open", sid)
			}
			if is == nil || is.failed {
				continue // rejected open or failed payload: drain politely
			}
			accs, err = is.dec.Feed(payload, accs[:0])
			if err != nil {
				failSession(sid, is, err)
				continue
			}
			if len(accs) > 0 {
				if err := m.Submit(sid, append([]trace.Access(nil), accs...)); err != nil {
					failSession(sid, is, err)
				}
			}
		case frameClose:
			is, ok := owned[sid]
			if !ok {
				return fmt.Errorf("fleet: close for session %q before open", sid)
			}
			delete(owned, sid)
			if is == nil || is.failed {
				continue // rejected open / already closed by failSession
			}
			clean := true
			if err := is.dec.Finish(); err != nil {
				clean = false
				resp.sendError(sid, errCode(err), err.Error())
				m.emit("fleet.ingest_error",
					slog.String("session", sid),
					slog.String("error", err.Error()))
			}
			if err := m.CloseSession(sid); err != nil {
				clean = false
				resp.sendError(sid, errCode(err), err.Error())
				m.emit("fleet.ingest_error",
					slog.String("session", sid),
					slog.String("error", err.Error()))
			}
			if clean {
				// The delivery acknowledgement a reconnecting client keys
				// exactly-once success off.
				resp.sendDone(sid)
			}
		default:
			return fmt.Errorf("fleet: unknown frame type 0x%02x", kind)
		}
	}
}

// settled reports whether a connection owns no live session: every open it
// sent was refused, failed, or closed, and each outcome went back to the
// client as an error or done frame.
func settled(owned map[string]*ingestSession) bool {
	for _, is := range owned {
		if is != nil && !is.failed {
			return false
		}
	}
	return true
}

// byteReader adapts any reader to the io.ByteReader binary.ReadUvarint
// needs, without double-buffering an already-buffered one. When conn is
// set, every read re-arms the idle deadline first, so a stalled client is
// detected however far into a frame it stalled.
type byteReader struct {
	r        io.Reader
	one      [1]byte
	deadline time.Duration
	conn     deadlineReader
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) arm() {
	if b.conn != nil {
		b.conn.SetReadDeadline(time.Now().Add(b.deadline))
	}
}

func (b *byteReader) Read(p []byte) (int, error) {
	b.arm()
	return io.ReadFull(b.r, p)
}

func (b *byteReader) ReadByte() (byte, error) {
	b.arm()
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// readString reads a uvarint-prefixed string bounded by max.
func readString(br *byteReader, max int) (string, error) {
	b, err := readBytes(br, max)
	if err != nil {
		return "", err
	}
	if len(b) == 0 {
		return "", errors.New("empty session id")
	}
	return string(b), nil
}

// readBytes reads a uvarint-prefixed byte string bounded by max.
func readBytes(br *byteReader, max int) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("length %d exceeds the %d limit", n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
