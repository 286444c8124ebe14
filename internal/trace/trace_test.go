package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sample() []Access {
	return []Access{
		{0x400000, InstFetch},
		{0x400004, InstFetch},
		{0x10010000, DataRead},
		{0x400008, InstFetch},
		{0x10010004, DataWrite},
	}
}

func TestNewSliceSourceIsIdentity(t *testing.T) {
	accs := sample()
	if got := NewSliceSource(accs); &got[0] != &accs[0] || len(got) != len(accs) {
		t.Errorf("NewSliceSource = %v, want the same slice %v", got, accs)
	}
}

func TestFilters(t *testing.T) {
	inst := OnlyInst(sample())
	if want := []Access{sample()[0], sample()[1], sample()[3]}; !reflect.DeepEqual(inst, want) {
		t.Errorf("OnlyInst = %v, want %v", inst, want)
	}
	data := OnlyData(sample())
	if want := []Access{sample()[2], sample()[4]}; !reflect.DeepEqual(data, want) {
		t.Errorf("OnlyData = %v, want %v", data, want)
	}
	if cap(inst) != len(inst) || cap(data) != len(data) {
		t.Errorf("filter results not at exact length: caps %d/%d for %d/%d", cap(inst), cap(data), len(inst), len(data))
	}
	// An empty side is nil, and so is an empty input.
	if got := OnlyInst(data); got != nil {
		t.Errorf("OnlyInst of a data stream = %v, want nil", got)
	}
	if got := OnlyData(nil); got != nil {
		t.Errorf("OnlyData(nil) = %v, want nil", got)
	}
	// Each filter allocates once, whatever the stream's length.
	accs := mixedStream(10_000)
	if n := testing.AllocsPerRun(5, func() { data = OnlyData(accs) }); n != 1 {
		t.Errorf("OnlyData made %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(5, func() { inst = OnlyInst(accs) }); n != 1 {
		t.Errorf("OnlyInst made %v allocations, want 1", n)
	}
	if i, d := Split(accs); !reflect.DeepEqual(inst, i) || !reflect.DeepEqual(data, d) {
		t.Error("OnlyInst/OnlyData disagree with Split")
	}
}

func TestSplit(t *testing.T) {
	inst, data := Split(sample())
	if len(inst) != 3 || len(data) != 2 {
		t.Fatalf("Split = %d/%d, want 3/2", len(inst), len(data))
	}
	if data[1].Kind != DataWrite || !data[1].IsWrite() {
		t.Errorf("write access misclassified: %v", data[1])
	}
	// An empty half is nil.
	if inst, data := Split(OnlyData(sample())); inst != nil || len(data) != 2 {
		t.Errorf("Split(OnlyData) = %v/%v, want nil and 2 data accesses", inst, data)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sample())
	if s.Total != 5 || s.Inst != 3 || s.Reads != 1 || s.Writes != 1 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.UniqueLines16 != 2 {
		t.Errorf("UniqueLines16 = %d, want 2 (one code line, one data line)", s.UniqueLines16)
	}
}

// mixedStream is n accesses of random kinds at random addresses: most
// records take 6 bytes, so a long one spans several encoder chunks.
func mixedStream(n int) []Access {
	rng := rand.New(rand.NewSource(7))
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{Addr: rng.Uint32(), Kind: Kind(rng.Intn(3))}
	}
	return accs
}

func TestCodecRoundTrip(t *testing.T) {
	// The digests were recorded from the record-at-a-time bufio encoder.
	for _, tc := range []struct {
		name   string
		accs   []Access
		digest string
	}{
		{"sample", sample(), "f2869b19b7ad6dfb"},
		{"empty", nil, "142376c6419eaf24"},
		{"mixed40k", mixedStream(40_000), "e357aacee12f6b63"},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, tc.accs); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != tc.digest {
			t.Errorf("%s: encoding digest = %s, want %s", tc.name, got, tc.digest)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.accs) || (len(got) > 0 && !reflect.DeepEqual(got, tc.accs)) {
			t.Fatalf("%s: round trip returned %d accesses, want %d equal ones", tc.name, len(got), len(tc.accs))
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte{'S', 'T', 'R', 'C', 99})); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	if err := Encode(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

func TestCodecCompactness(t *testing.T) {
	// A sequential instruction stream should cost ~2 bytes per access.
	accs := make([]Access, 10000)
	for i := range accs {
		accs[i] = Access{Addr: 0x400000 + uint32(4*i), Kind: InstFetch}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, accs); err != nil {
		t.Fatal(err)
	}
	if per := float64(buf.Len()) / float64(len(accs)); per > 2.5 {
		t.Errorf("sequential stream costs %.2f bytes/access, want <= 2.5", per)
	}
}

// Property: any access sequence round-trips exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		accs := make([]Access, n)
		for i := 0; i < n; i++ {
			accs[i] = Access{Addr: addrs[i], Kind: Kind(kinds[i] % 3)}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, accs); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(accs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, accs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestEncodeAllocatesPerStreamNotPerAccess pins that Encode's allocations
// do not grow with the stream: records are appended to one reused chunk.
func TestEncodeAllocatesPerStreamNotPerAccess(t *testing.T) {
	allocs := func(n int) float64 {
		accs := mixedStream(n)
		return testing.AllocsPerRun(2, func() {
			if err := Encode(io.Discard, accs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10_000), allocs(1_000_000); short != long {
		t.Errorf("Encode allocates %v times for 10k accesses but %v for 1M", short, long)
	}
}

// TestSplitAllocatesExactly pins that Split allocates each half once, at
// its exact length.
func TestSplitAllocatesExactly(t *testing.T) {
	accs := mixedStream(10_000)
	var inst, data []Access
	if n := testing.AllocsPerRun(5, func() { inst, data = Split(accs) }); n != 2 {
		t.Errorf("Split made %v allocations, want 2", n)
	}
	if len(inst)+len(data) != len(accs) || cap(inst) != len(inst) || cap(data) != len(data) {
		t.Errorf("Split halves %d/%d (caps %d/%d) of %d accesses", len(inst), len(data), cap(inst), cap(data), len(accs))
	}
}
