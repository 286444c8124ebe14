package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime/debug"
	"slices"
	"testing"

	"selftune/internal/trace"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 19 {
		t.Fatalf("Profiles() = %d, want the paper's 19 benchmarks", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.Paper.ICfg == "" || p.Paper.DCfg == "" {
			t.Errorf("%s missing paper Table 1 row", p.Name)
		}
		if len(p.Code) == 0 || len(p.Data) == 0 || p.InstPerStep <= 0 {
			t.Errorf("%s incompletely specified", p.Name)
		}
	}
	for _, name := range []string{"padpcm", "jpeg", "mpeg2", "g721"} {
		if !seen[name] {
			t.Errorf("missing paper benchmark %q", name)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("crc")
	if !ok || p.Name != "crc" {
		t.Fatal("ByName(crc) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted a bogus name")
	}
}

// pinLen crosses every profile's InitAccesses and is a multiple of no
// profile's step (InstPerStep+DataPerStep), so a pinned stream ends inside
// a step after the init phase has ended.
const pinLen = 31_919

// generatePins are digests of Generate(pinLen) and of its Encode bytes,
// recorded from the access-by-access generator that drained NewSource
// through a trace.Limit and the record-at-a-time bufio encoder. They pin
// that batch generation and the chunked encoder produce the same streams
// and the same bytes.
var generatePins = map[string][2]string{
	"padpcm":   {"d5295fd997f86258", "594d8d62c7d52408"},
	"crc":      {"21ecaa2b31ed5428", "d559a3c23be1e1bd"},
	"auto":     {"655c68548e5e5096", "bf2d19cc9870a0ab"},
	"bcnt":     {"cbff8d0abda09f9a", "aa0307d992092efd"},
	"bilv":     {"8aeb10aabf954f56", "c5422bb75bd6d7f3"},
	"binary":   {"bbac29f8243bbc70", "6ed6808b25807527"},
	"blit":     {"fa601e2afdef87ba", "408fa93cfa78d775"},
	"brev":     {"abdbef47a9e2b174", "53b072c285140ea5"},
	"g3fax":    {"0f11af8e73a866c8", "b9f484e65dfed8e6"},
	"fir":      {"486aac0bf2e00d21", "142090f2e7d0d479"},
	"jpeg":     {"a26b79121a7c9186", "5cd42f1ea43f656b"},
	"pjpeg":    {"fcae19b9a8ea8640", "a7d65b673861a19a"},
	"ucbqsort": {"abbd559c1dc6eefa", "e84c80582e088551"},
	"tv":       {"294ad005afa3838c", "0cab326edaab5415"},
	"adpcm":    {"b9579812dc35dafd", "16cc41d7e53f687d"},
	"epic":     {"3762f1f929659b41", "e2fccb58be85afb3"},
	"g721":     {"7382aea4c06e56a3", "bfcb24e595667d0d"},
	"pegwit":   {"da397475c975ed8b", "e83b3c00471de4e2"},
	"mpeg2":    {"37d8c6d646f0e311", "8e0423112c6583ca"},
	"parser":   {"ecf3c0e7392a7d36", "bf4bcf9d2bbe22bc"},
}

// digest hashes b with SHA-256 and keeps the first 8 bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// accessDigest hashes each access as its little-endian address and kind.
func accessDigest(accs []trace.Access) string {
	b := make([]byte, 0, 5*len(accs))
	for _, a := range accs {
		b = append(b, byte(a.Addr), byte(a.Addr>>8), byte(a.Addr>>16), byte(a.Addr>>24), byte(a.Kind))
	}
	return digest(b)
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("jpeg")
	a := p.Generate(5000)
	q, _ := ByName("jpeg")
	b := q.Generate(5000)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("Generate lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}

	for _, p := range append(Profiles(), ParserLike()) {
		if step := p.InstPerStep + p.DataPerStep; pinLen%step == 0 || pinLen <= p.InitAccesses {
			t.Fatalf("%s: pin length %d is a multiple of the step %d or inside the init phase", p.Name, pinLen, step)
		}
		accs := p.Generate(pinLen)
		if len(accs) != pinLen {
			t.Fatalf("%s: Generate(%d) returned %d accesses", p.Name, pinLen, len(accs))
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, accs); err != nil {
			t.Fatal(err)
		}
		got := [2]string{accessDigest(accs), digest(buf.Bytes())}
		if want, ok := generatePins[p.Name]; !ok || got != want {
			t.Errorf("%s: digests (stream, encoding) = %q, want %q", p.Name, got, want)
		}
		// Every shorter stream is a prefix of the longer one.
		for _, n := range []int{0, 1, 149, p.InitAccesses - 1, p.InitAccesses, p.InitAccesses + 1} {
			if n < 0 {
				continue
			}
			if short := p.Generate(n); len(short) != n || !slices.Equal(short, accs[:n]) {
				t.Fatalf("%s: Generate(%d) is not a prefix of Generate(%d)", p.Name, n, pinLen)
			}
		}
	}
}

func TestStreamsStayInDeclaredRanges(t *testing.T) {
	for _, p := range Profiles() {
		accs := p.Generate(20_000)
		for _, a := range accs {
			if a.Kind == trace.InstFetch {
				ok := false
				for _, r := range p.Code {
					if a.Addr >= r.Base && a.Addr < r.Base+uint32(r.Size) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s: fetch %#x outside all code regions", p.Name, a.Addr)
				}
			} else {
				ok := false
				for _, d := range append(append([]ArrayRef{}, p.Data...), p.InitData...) {
					if a.Addr >= d.Base && a.Addr < d.Base+uint32(d.Size) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("%s: data ref %#x outside all arrays", p.Name, a.Addr)
				}
			}
		}
	}
}

func TestMixMatchesSpec(t *testing.T) {
	p, _ := ByName("blit")
	accs := p.Generate(30_000)
	s := trace.Summarize(accs)
	wantRatio := float64(p.DataPerStep) / float64(p.InstPerStep)
	gotRatio := float64(s.Reads+s.Writes) / float64(s.Inst)
	if gotRatio < 0.8*wantRatio || gotRatio > 1.2*wantRatio {
		t.Errorf("data/inst ratio = %.3f, want ~%.3f", gotRatio, wantRatio)
	}
	// blit's destination stream is write-heavy.
	if s.Writes == 0 || s.Reads == 0 {
		t.Errorf("blit stream missing reads or writes: %+v", s)
	}
}

func TestWritePctRespected(t *testing.T) {
	p := &Profile{
		Name: "wtest", Seed: 1, InstPerStep: 10, DataPerStep: 10,
		Code: []CodeRegion{{Base: codeBase, Size: 256, RunBytes: 64, Weight: 1}},
		Data: []ArrayRef{{Base: dataBase, Size: 1024, Stride: 4, RunLen: 4, WritePct: 100, Weight: 1}},
	}
	for _, a := range p.Generate(2000) {
		if a.IsData() && !a.IsWrite() {
			t.Fatal("WritePct=100 produced a read")
		}
	}
}

func TestGenerateRejectsEmptyStep(t *testing.T) {
	p := &Profile{Name: "empty", Code: []CodeRegion{{Base: codeBase, Size: 256, Weight: 1}}}
	defer func() {
		if recover() == nil {
			t.Error("Generate of a profile with no accesses per step did not panic")
		}
	}()
	p.Generate(10)
}

func TestParserLikeFootprint(t *testing.T) {
	p := ParserLike()
	accs := p.Generate(200_000)
	s := trace.Summarize(accs)
	// The Figure 2 workload needs a footprint far beyond 8 KB.
	if s.UniqueLines16 < 2048 {
		t.Errorf("parser-like footprint = %d lines (%d KB), want >= 32 KB",
			s.UniqueLines16, s.UniqueLines16*16/1024)
	}
}

func TestAlternationGrainIsSticky(t *testing.T) {
	// With sticky runs, consecutive data refs should come from the same
	// array RunLen at a time.
	p := &Profile{
		Name: "sticky", Seed: 3, InstPerStep: 4, DataPerStep: 4,
		Code: []CodeRegion{{Base: codeBase, Size: 256, RunBytes: 64, Weight: 1}},
		Data: []ArrayRef{
			{Base: dataBase, Size: 4096, Stride: 4, RunLen: 4, Weight: 1},
			{Base: dataBase + 0x10000, Size: 4096, Stride: 4, RunLen: 4, Weight: 1},
		},
	}
	var data []trace.Access
	for _, a := range p.Generate(4000) {
		if a.IsData() {
			data = append(data, a)
		}
	}
	// Count switches between the arrays; with RunLen 4 there should be
	// about len(data)/4 runs, not len(data)/2 (which random picking with
	// two arrays would give).
	switches := 0
	for i := 1; i < len(data); i++ {
		if (data[i].Addr >= dataBase+0x10000) != (data[i-1].Addr >= dataBase+0x10000) {
			switches++
		}
	}
	maxSwitches := len(data)/4 + len(data)/20
	if switches > maxSwitches {
		t.Errorf("%d switches in %d refs; runs are not sticky (want <= %d)",
			switches, len(data), maxSwitches)
	}
}

// TestGenerateAllocatesPerStreamNotPerAccess pins that Generate fills one
// presized slice: its allocations do not grow with the stream. GC is held
// off for the measured calls, because a collection cycle that runs during
// one adds runtime allocations that Generate did not make.
func TestGenerateAllocatesPerStreamNotPerAccess(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, _ := ByName("jpeg")
	allocs := func(n int) float64 { return testing.AllocsPerRun(1, func() { p.Generate(n) }) }
	if short, long := allocs(10_000), allocs(1_000_000); short != long {
		t.Errorf("Generate allocates %v times for 10k accesses but %v for 1M", short, long)
	}
}
