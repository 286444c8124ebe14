package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// liveState builds a non-trivial State by actually running a tuning session
// partway: a realistic cache image, a mid-search transcript, events.
func liveState(t *testing.T, windows uint64) *State {
	t.Helper()
	prof, ok := workload.ByName("crc")
	if !ok {
		t.Fatal("no crc profile")
	}
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(600_000)))
	o := tuner.NewOnline(cache.MustConfigurable(cache.MinConfig()), energy.DefaultParams(), tuner.OnlineOptions{Window: 4000})
	consumed := uint64(0)
	for _, a := range data {
		o.Access(a.Addr, a.IsWrite())
		consumed++
		if o.CompletedWindows() >= windows {
			break
		}
	}
	st, err := o.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	img, err := o.Cache().(*cache.Configurable).Image()
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	o.Abort()
	return &State{
		Consumed: consumed,
		Windows:  windows,
		Cache:    img,
		Session:  WireSession(st),
		Events:   []Event{{At: 100, Kind: "retune", Cfg: cache.MinConfig()}},
		WinAcc:   17,
		WinMiss:  3,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := liveState(t, 3)
	b, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Consumed != st.Consumed || got.Windows != st.Windows || got.WinAcc != st.WinAcc || got.WinMiss != st.WinMiss {
		t.Errorf("counters did not round-trip: %+v", got)
	}
	if got.Session == nil || len(got.Session.History) != len(st.Session.History) {
		t.Fatalf("session transcript did not round-trip")
	}
	for i := range st.Session.History {
		if got.Session.History[i] != st.Session.History[i] {
			t.Errorf("history[%d] = %+v, want %+v", i, got.Session.History[i], st.Session.History[i])
		}
	}
	// The decoded image must restore into a working cache, and the decoded
	// session must resume on it — the end-to-end property the daemon needs.
	c, err := cache.RestoreConfigurable(got.Cache)
	if err != nil {
		t.Fatalf("restore cache from decoded image: %v", err)
	}
	if _, err := tuner.ResumeOnline(c, energy.DefaultParams(), got.Session.TunerState(), tuner.OnlineOptions{}); err != nil {
		t.Fatalf("resume session from decoded state: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	st := liveState(t, 2)
	good, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"flipped CRC", func(b []byte) []byte { b[17] ^= 1; return b }},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xAA) }},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), good...))
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", tc.name)
		}
	}
}

func TestStoreSaveLoadAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st, gen, err := s.Load(); err != nil || st != nil || gen != 0 {
		t.Fatalf("empty store Load = (%v, %d, %v), want (nil, 0, nil)", st, gen, err)
	}
	for i := uint64(1); i <= 5; i++ {
		gen, err := s.Save(&State{Consumed: i * 1000})
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if gen != i {
			t.Fatalf("Save %d wrote generation %d", i, gen)
		}
	}
	st, gen, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gen != 5 || st.Consumed != 5000 {
		t.Fatalf("Load = generation %d consumed %d, want 5/5000", gen, st.Consumed)
	}
	// keep=3 → generations 1 and 2 pruned.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 3 {
		t.Fatalf("after prune: %v, want 3 generations", names)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Errorf("leftover tmp file %s", n)
		}
	}
	if _, err := os.Stat(s.Path(2)); !os.IsNotExist(err) {
		t.Errorf("generation 2 should be pruned")
	}
}

func TestStoreFallsBackPastCorruptHead(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := s.Save(&State{Consumed: i * 1000}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest generation in place (bit rot / torn write).
	head := s.Path(3)
	b, err := os.ReadFile(head)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(head, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, gen, err := s.Load()
	if err != nil {
		t.Fatalf("Load with corrupt head: %v", err)
	}
	if gen != 2 || st.Consumed != 2000 {
		t.Fatalf("Load = generation %d consumed %d, want fallback to 2/2000", gen, st.Consumed)
	}

	// Truncate the fallback too — Load steps back again.
	if err := os.Truncate(s.Path(2), 5); err != nil {
		t.Fatal(err)
	}
	st, gen, err = s.Load()
	if err != nil || gen != 1 || st.Consumed != 1000 {
		t.Fatalf("Load with two corrupt heads = (%d, %v), want generation 1", gen, err)
	}

	// All corrupt → a real error, not a silent fresh start.
	if err := os.Truncate(s.Path(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); err == nil {
		t.Fatal("Load with every generation corrupt must error")
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Stale tmp file and unrelated junk must not confuse generation parsing.
	for _, n := range []string{"ckpt-00000009.stck.tmp", "notes.txt", "ckpt-zz.stck"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := s.Save(&State{Consumed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first real generation numbered %d, want 1", gen)
	}
	st, _, err := s.Load()
	if err != nil || st.Consumed != 42 {
		t.Fatalf("Load = (%+v, %v)", st, err)
	}
}

// FuzzDecode: no input, however mangled, may crash the decoder — it either
// parses or errors.
func FuzzDecode(f *testing.F) {
	st := &State{Consumed: 123, Windows: 4, Events: []Event{{At: 1, Kind: "settle"}}}
	if b, err := Encode(st); err == nil {
		f.Add(b)
		f.Add(b[:len(b)-3])
		mutated := append([]byte(nil), b...)
		mutated[22] ^= 0x10
		f.Add(mutated)
	}
	f.Add([]byte{})
	f.Add([]byte("STCK"))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := Decode(b)
		if err == nil && st == nil {
			t.Fatal("Decode returned nil state with nil error")
		}
	})
}
