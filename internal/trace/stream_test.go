package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func sampleAccs(n int) []Access {
	accs := make([]Access, 0, n)
	x := uint32(0x1234_5678)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		accs = append(accs, Access{Addr: x, Kind: Kind(x % 3)})
	}
	return accs
}

func TestStreamDecoderMatchesDecodeAcrossChunkSizes(t *testing.T) {
	accs := sampleAccs(500)
	var buf bytes.Buffer
	if err := Encode(&buf, accs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, chunk := range []int{1, 2, 3, 5, 7, 64, len(raw)} {
		var d StreamDecoder
		var got []Access
		var err error
		for off := 0; off < len(raw); off += chunk {
			end := off + chunk
			if end > len(raw) {
				end = len(raw)
			}
			got, err = d.Feed(raw[off:end], got)
			if err != nil {
				t.Fatalf("chunk=%d: Feed: %v", chunk, err)
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("chunk=%d: Finish: %v", chunk, err)
		}
		if !reflect.DeepEqual(got, accs) {
			t.Fatalf("chunk=%d: chunked decode differs from the encoded stream", chunk)
		}
	}
}

func TestStreamDecoderRejectsBadMagicAndKind(t *testing.T) {
	var d StreamDecoder
	if _, err := d.Feed([]byte("NOPE\x01"), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := d.Feed([]byte{0}, nil); err == nil {
		t.Fatal("error not sticky")
	}

	var d2 StreamDecoder
	if _, err := d2.Feed([]byte("STRC\x01\x07"), nil); err == nil {
		t.Fatal("invalid kind byte accepted")
	}
}

func TestStreamDecoderFinishOnTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleAccs(3)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	var d StreamDecoder
	if _, err := d.Feed(raw[:len(raw)-1], nil); err != nil {
		t.Fatalf("prefix feed failed: %v", err)
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted a truncated record")
	}

	var short StreamDecoder
	if _, err := short.Feed(raw[:3], nil); err != nil {
		t.Fatalf("short header feed errored early: %v", err)
	}
	if err := short.Finish(); err == nil {
		t.Fatal("Finish accepted a stream shorter than the header")
	}
}

// TestStreamDecoderErrorTexts pins the decode errors' wording and their
// stickiness, whether the bad record arrives whole or split across calls.
func TestStreamDecoderErrorTexts(t *testing.T) {
	malformed := append([]byte("STRC\x01\x00"), bytes.Repeat([]byte{0xff}, 10)...)
	malformed = append(malformed, 0x01, 0x00, 0x00)
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"bad kind", []byte("STRC\x01\x00\x02\x07\x00"), "trace: invalid kind 7"},
		{"malformed varint", malformed, "trace: malformed delta varint"},
	} {
		for _, chunk := range []int{1, 3, len(tc.raw)} {
			var d StreamDecoder
			var err error
			for off := 0; off < len(tc.raw) && err == nil; off += chunk {
				_, err = d.Feed(tc.raw[off:min(off+chunk, len(tc.raw))], nil)
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, chunk %d: error %v, want %q", tc.name, chunk, err, tc.want)
			}
			if _, again := d.Feed([]byte{0}, nil); again != err {
				t.Fatalf("%s, chunk %d: error not sticky: %v", tc.name, chunk, again)
			}
			if fin := d.Finish(); fin != err {
				t.Fatalf("%s, chunk %d: Finish returned %v", tc.name, chunk, fin)
			}
		}
	}
}

// TestStreamDecoderFeedZeroAllocs: fed whole records into a buffer with room
// for them, Feed decodes in place and allocates nothing.
func TestStreamDecoderFeedZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleAccs(4096)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var d StreamDecoder
	dst, err := d.Feed(raw, make([]Access, 0, len(raw)))
	if err != nil || len(dst) != 4096 {
		t.Fatalf("decoded %d accesses, err %v", len(dst), err)
	}
	body := raw[headerLen:]
	if n := testing.AllocsPerRun(20, func() {
		if dst, err = d.Feed(body, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Feed: %.0f allocs/op, want 0", n)
	}
}

// deltaSeed is a stream whose records carry varint deltas of the given
// encoded lengths: the writer emits 1- to 5-byte deltas, and a 10-byte one
// (a 64-bit delta no 32-bit address pair produces) is spliced in by hand.
func deltaSeed(tb testing.TB) []byte {
	var buf bytes.Buffer
	accs := []Access{
		{Addr: 0x10, Kind: DataRead},        // 1 byte
		{Addr: 0x1010, Kind: DataRead},      // 2 bytes
		{Addr: 0x8_1010, Kind: DataRead},    // 3 bytes
		{Addr: 0xF010_1010, Kind: DataRead}, // 5 bytes
	}
	if err := Encode(&buf, accs); err != nil {
		tb.Fatal(err)
	}
	raw := append(buf.Bytes(), byte(DataWrite))
	return binary.AppendVarint(raw, -1<<63) // 10 bytes
}

// FuzzStreamDecoder pins that chunked decoding never panics and, split at
// two arbitrary points into three chunks, agrees exactly with the one-shot
// Decode on inputs Decode accepts — the split points land records both
// whole inside a chunk and across chunk boundaries.
func FuzzStreamDecoder(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleAccs(20)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 7, 30)
	f.Add([]byte("STRC\x01"), 2, 3)
	f.Add([]byte("STRC\x02\x00\x00"), 1, 4)
	f.Add([]byte{0x00, 0x01, 0x02}, 1, 2)
	deltas := deltaSeed(f)
	for _, split := range [][2]int{{6, 9}, {8, 13}, {12, 20}, {len(deltas) - 5, len(deltas) - 1}} {
		f.Add(deltas, split[0], split[1])
	}
	malformed := append([]byte("STRC\x01\x00"), bytes.Repeat([]byte{0x80}, 10)...)
	f.Add(append(malformed, 0x01), 9, 15)
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 int) {
		cut := func(s int) int {
			if s < 0 {
				s = -(s + 1)
			}
			return s % (len(data) + 1)
		}
		s1, s2 = cut(s1), cut(s2)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		var d StreamDecoder
		var got []Access
		var err error
		for _, chunk := range [][]byte{data[:s1], data[s1:s2], data[s2:]} {
			if got, err = d.Feed(chunk, got); err != nil {
				break
			}
		}
		if err == nil {
			err = d.Finish()
		}
		whole, werr := Decode(bytes.NewReader(data))
		if werr == nil && err != nil {
			t.Fatalf("Decode accepted what StreamDecoder rejected: %v", err)
		}
		if werr == nil && !reflect.DeepEqual(got, whole) {
			t.Fatalf("chunked decode differs from Decode: %d vs %d accesses", len(got), len(whole))
		}
		if werr != nil && err == nil {
			t.Fatalf("StreamDecoder accepted what Decode rejected: %v", werr)
		}
	})
}
