package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"selftune/internal/fleet/allocator"
)

func TestFleetStoreNamespacesSessions(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"tenant-b", "tenant-a", "weird/../id"}
	for _, id := range ids {
		st, err := fs.Session(id)
		if err != nil {
			t.Fatalf("Session(%q): %v", id, err)
		}
		if _, err := st.Save(&State{Consumed: uint64(len(id))}); err != nil {
			t.Fatalf("Save for %q: %v", id, err)
		}
	}
	want := []string{"tenant-a", "tenant-b", "weird/../id"}
	if got, err := fs.Sessions(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Sessions() = %v (%v), want %v", got, err, want)
	}

	// Each session loads its own state back, per-session fallback intact.
	for _, id := range ids {
		st, err := fs.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		loaded, _, err := st.Load()
		if err != nil {
			t.Fatalf("Load for %q: %v", id, err)
		}
		if loaded.Consumed != uint64(len(id)) {
			t.Fatalf("session %q loaded consumed=%d, want %d", id, loaded.Consumed, len(id))
		}
	}

	// A fresh open lists the same sessions from the tree.
	fs2, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs2.Sessions(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened Sessions() = %v (%v), want %v", got, err, want)
	}

	// The hostile ID must not have escaped the sessions subtree.
	if _, err := os.Stat(fs.SessionDir("weird/../id")); err != nil {
		t.Fatalf("encoded session dir missing: %v", err)
	}
}

func TestFleetStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No state yet: nil, no error.
	st, err := fs.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("LoadState before any save = %+v, want nil", st)
	}

	want := &FleetState{
		Assignments: map[string]int{"a": 8192, "b": 4096},
		Pending:     []string{"d", "c"}, // FIFO order, not sorted
		Profiles: []allocator.Profile{
			{ID: "a", Weight: 10_000, Points: []allocator.Point{{Bytes: 2048, MissRate: 0.4}, {Bytes: 8192, MissRate: 0.1}}},
		},
	}
	if err := fs.SaveState(want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	want.Version = fleetStateVersion
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadState = %+v, want %+v", got, want)
	}

	// Survives reopening the store; overwrites atomically.
	fs2, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err = fs2.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened LoadState = %+v, want %+v", got, want)
	}
	if err := fs2.SaveState(&FleetState{Assignments: map[string]int{"a": 2048}}); err != nil {
		t.Fatal(err)
	}
	got, err = fs2.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if got.Assignments["a"] != 2048 || len(got.Pending) != 0 {
		t.Fatalf("overwritten LoadState = %+v", got)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fleet-state.golden with current output")

// TestFleetStateGolden pins fleet-state.json byte for byte: a restarted
// fleet must read the state an older build wrote, so the encoding of the
// assignments, the pending queue and two miss-ratio-curve profiles may not
// drift.
func TestFleetStateGolden(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := &FleetState{
		Assignments: map[string]int{"a": 6144, "b": 2048},
		Pending:     []string{"c"},
		Profiles: []allocator.Profile{
			{ID: "a", Weight: 1000, Points: []allocator.Point{{Bytes: 2048, MissRate: 0.25}, {Bytes: 4096, MissRate: 0.125}, {Bytes: 8192, MissRate: 0.1}}},
			{ID: "b", Weight: 987.5, Points: []allocator.Point{{Bytes: 2048, MissRate: 0.03125}, {Bytes: 8192, MissRate: 0}}},
		},
	}
	if err := fs.SaveState(st); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fleet-state.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fleet-state.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet-state.json drifted from %s:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestFleetStoreRejectsEmptyID(t *testing.T) {
	fs, err := OpenFleetStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Session(""); err == nil {
		t.Fatal("empty session id accepted")
	}
}

func TestEncodeSessionIDCollisionFree(t *testing.T) {
	ids := []string{"a", "a/b", "a%2Fb", "x-61", "s-a", "..", ".", "A", "é", string(make([]byte, 129))}
	seen := map[string]string{}
	for _, id := range ids {
		enc := encodeSessionID(id)
		if prev, dup := seen[enc]; dup {
			t.Fatalf("IDs %q and %q both encode to %q", prev, id, enc)
		}
		seen[enc] = id
		if got, ok := decodeSessionID(enc); !ok || got != id {
			t.Errorf("decode(encode(%q)) = %q, %v", id, got, ok)
		}
	}
	// Names the encoder never produces: no prefix, bad hex, an empty ID,
	// a hex form of a plain ID, upper-case hex, a plain form of a hostile ID.
	for _, name := range []string{"tmp", "manifest.json", "x-zz", "s-", "x-", "x-61", "x-2E", "s-a b"} {
		if id, ok := decodeSessionID(name); ok {
			t.Errorf("decode(%q) = %q, want rejected", name, id)
		}
	}
}

// TestFleetStoreIgnoresLegacyManifest opens a tree in the older layout, whose
// manifest.json listed every session ever opened, and checks the sessions
// are exactly its session directories: a manifest-only ID is not one, and
// stray entries under sessions/ are skipped.
func TestFleetStoreIgnoresLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"sessions/s-a", "sessions/x-2f", "sessions/tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "sessions", "s-file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{"Version": 1, "Sessions": ["/", "a", "gone"]}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFleetStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"/", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Sessions() = %q, want %q", got, want)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err != nil || string(b) != manifest {
		t.Fatalf("manifest.json changed: %q (%v)", b, err)
	}
}
