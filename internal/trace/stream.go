package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// StreamDecoder decodes the binary trace codec incrementally, from bytes
// that arrive in arbitrary chunks — the fleet's streaming ingest hands each
// session's wire payload to one of these as frames land, without ever
// holding a whole trace in memory or blocking on an io.Reader. The
// concatenation of everything fed to one decoder must be exactly the byte
// stream Encode produces (header included).
//
// Feed decodes straight from the caller's chunk: only a header or record
// split across chunks is copied, into a tail buffer of at most one record,
// and completed from the next chunk. One- and two-byte deltas — nearly
// every record of a real stream — are decoded inline; longer ones go
// through encoding/binary.
type StreamDecoder struct {
	buf    []byte
	prev   [3]uint32
	header bool
	err    error
}

const (
	headerLen = len(magic) + 1
	// maxRecord is the longest well-formed record: a kind byte and a
	// 10-byte varint. Topping a split tail up by this many bytes always
	// decides it — complete, malformed or out of input.
	maxRecord = 1 + binary.MaxVarintLen64
)

// Feed decodes every complete record of the stream so far, appending the
// accesses to dst (which may be nil) and returning it. The first malformed
// byte poisons the decoder: the error is returned now and on every later
// call.
func (d *StreamDecoder) Feed(p []byte, dst []Access) ([]Access, error) {
	if d.err != nil {
		return dst, d.err
	}
	if len(d.buf) > 0 || !d.header {
		// A header or record split across calls: top the tail up from p
		// and decode from the copy until decoding reaches a record that
		// starts in p.
		old := len(d.buf)
		d.buf = append(d.buf, p[:min(len(p), maxRecord)]...)
		pos := 0
		if !d.header {
			if len(d.buf) < headerLen {
				return dst, nil
			}
			if [4]byte(d.buf[:4]) != magic {
				d.err = fmt.Errorf("trace: bad magic %q", d.buf[:4])
				return dst, d.err
			}
			if d.buf[4] != codecVersion {
				d.err = fmt.Errorf("trace: unsupported version %d", d.buf[4])
				return dst, d.err
			}
			d.header = true
			pos = headerLen
		}
		n := 0
		dst, n, d.err = d.decode(d.buf[pos:], dst)
		if d.err != nil {
			return dst, d.err
		}
		if pos += n; pos < old {
			// The split record is still incomplete (pos is 0), so p was
			// shorter than maxRecord and is all in the tail already.
			return dst, nil
		}
		p = p[pos-old:]
		d.buf = d.buf[:0]
	}
	dst, n, err := d.decode(p, dst)
	if err != nil {
		d.err = err
		return dst, err
	}
	d.buf = append(d.buf, p[n:]...)
	return dst, nil
}

// decode appends every complete record at the front of b to dst and
// returns how many bytes they took; an incomplete final record is left
// for the caller to keep.
func (d *StreamDecoder) decode(b []byte, dst []Access) ([]Access, int, error) {
	off := 0
	for off < len(b) {
		kb := b[off]
		if kb > byte(DataWrite) {
			return dst, off, fmt.Errorf("trace: invalid kind %d", kb)
		}
		var delta int64
		n := 0
		switch {
		case off+1 < len(b) && b[off+1] < 0x80:
			ux := uint64(b[off+1])
			delta, n = int64(ux>>1)^-int64(ux&1), 1
		case off+2 < len(b) && b[off+2] < 0x80:
			ux := uint64(b[off+1]&0x7f) | uint64(b[off+2])<<7
			delta, n = int64(ux>>1)^-int64(ux&1), 2
		default:
			delta, n = binary.Varint(b[off+1:])
			if n == 0 {
				return dst, off, nil // record split across chunks
			}
			if n < 0 {
				return dst, off, fmt.Errorf("trace: malformed delta varint")
			}
		}
		if len(dst) == cap(dst) {
			// Every record is at least 2 bytes, so one growth per call
			// covers the rest of b.
			dst = slices.Grow(dst, (len(b)-off)/2+1)
		}
		k := Kind(kb)
		addr := uint32(int64(d.prev[k]) + delta)
		d.prev[k] = addr
		dst = append(dst, Access{Addr: addr, Kind: k})
		off += 1 + n
	}
	return dst, off, nil
}

// Err returns the sticky decode error, if any.
func (d *StreamDecoder) Err() error { return d.err }

// Finish reports whether the decoder is at a clean record boundary with the
// header seen — what end-of-stream must look like. A truncated final record
// (or a stream so short the header never completed) is an error.
func (d *StreamDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if !d.header {
		return fmt.Errorf("trace: short header: %w", io.ErrUnexpectedEOF)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return nil
}
