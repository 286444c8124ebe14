package trace

import (
	"bytes"
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

func TestSliceSourceAndCollect(t *testing.T) {
	s := NewSliceSource(sample())
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, sample()) {
		t.Fatalf("Collect = %v, want %v", got, sample())
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted source still yields")
	}
	s.Reset()
	if got := Collect(s, 2); len(got) != 2 {
		t.Errorf("Collect(max=2) returned %d", len(got))
	}
}

func TestFilters(t *testing.T) {
	inst := Collect(OnlyInst(NewSliceSource(sample())), 0)
	if len(inst) != 3 {
		t.Errorf("OnlyInst = %d accesses, want 3", len(inst))
	}
	data := Collect(OnlyData(NewSliceSource(sample())), 0)
	if len(data) != 2 {
		t.Errorf("OnlyData = %d accesses, want 2", len(data))
	}
	for _, a := range data {
		if !a.IsData() {
			t.Errorf("OnlyData yielded %v", a)
		}
	}
}

func TestSplit(t *testing.T) {
	inst, data := Split(NewSliceSource(sample()))
	if len(inst) != 3 || len(data) != 2 {
		t.Fatalf("Split = %d/%d, want 3/2", len(inst), len(data))
	}
	if data[1].Kind != DataWrite || !data[1].IsWrite() {
		t.Errorf("write access misclassified: %v", data[1])
	}
}

func TestLimit(t *testing.T) {
	l := NewLimit(NewSliceSource(sample()), 2)
	if got := Collect(l, 0); len(got) != 2 {
		t.Errorf("Limit(2) yielded %d", len(got))
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

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample()) {
		t.Fatalf("round trip = %v, want %v", got, sample())
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
