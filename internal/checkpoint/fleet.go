package checkpoint

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"selftune/internal/fleet/allocator"
)

// FleetStore namespaces many sessions' checkpoint generations under one
// directory tree:
//
//	<dir>/fleet-state.json
//	<dir>/sessions/<encoded-session-id>/ckpt-%08d.stck
//
// Each session gets its own Store, so the per-session durability contract —
// atomic tmp+fsync+rename saves, corrupt-head fallback on load — is exactly
// the single-daemon one. The tree is its own index: Sessions lists
// sessions/ and decodes each directory name back to its ID, so opening a
// session writes nothing but the directory its Store creates, and a store's
// first Save makes that directory's entry durable. Session IDs are
// arbitrary strings: plain ones are stored as "s-<id>", path-hostile ones
// hex-encoded as "x-<hex>". A manifest.json left by the older layout, which
// listed every session ever opened, is ignored.
type FleetStore struct {
	dir  string
	keep int

	mu sync.Mutex // serialises SaveState
}

// OpenFleetStore opens (creating if necessary) a fleet checkpoint tree. keep
// is the per-session generation retention, as in OpenStore. The directory is
// probed for writability so a misconfigured service fails at startup. When
// it creates sessions/, it syncs the root so the new entry is durable before
// any session's store hangs off it.
func OpenFleetStore(dir string, keep int) (*FleetStore, error) {
	sessions := filepath.Join(dir, "sessions")
	_, statErr := os.Stat(sessions)
	if err := os.MkdirAll(sessions, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open fleet store: %w", err)
	}
	probe := filepath.Join(dir, ".writable.probe")
	f, err := os.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: fleet store directory %s is not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	if os.IsNotExist(statErr) {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	return &FleetStore{dir: dir, keep: keep}, nil
}

// Dir returns the fleet store's root directory.
func (f *FleetStore) Dir() string { return f.dir }

func (f *FleetStore) sessionsDir() string { return filepath.Join(f.dir, "sessions") }

// SessionDir returns the directory that holds one session's generations.
func (f *FleetStore) SessionDir(id string) string {
	return filepath.Join(f.sessionsDir(), encodeSessionID(id))
}

// Session opens (creating if necessary) the per-session store for id. The
// returned Store is the ordinary single-daemon one; a session resuming
// after process death loads from it exactly as a local-mode stcd does.
func (f *FleetStore) Session(id string) (*Store, error) {
	if id == "" {
		return nil, fmt.Errorf("checkpoint: empty session id")
	}
	return OpenStore(f.SessionDir(id), f.keep)
}

// Sessions lists every session with a directory under sessions/, sorted.
// Entries whose names do not decode as a session ID are skipped.
func (f *FleetStore) Sessions() ([]string, error) {
	ents, err := os.ReadDir(f.sessionsDir())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: fleet sessions: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if id, ok := decodeSessionID(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Scrub runs Store.Scrub over every session in the tree, keyed by session
// ID. The per-session never-delete-the-last-valid-state rule applies store
// by store; one session rotted to nothing does not stop the others from
// being cleaned.
func (f *FleetStore) Scrub(remove bool) (map[string]*ScrubReport, error) {
	out := map[string]*ScrubReport{}
	ids, err := f.Sessions()
	if err != nil {
		return out, err
	}
	for _, id := range ids {
		s, err := f.Session(id)
		if err != nil {
			return out, fmt.Errorf("checkpoint: scrub %q: %w", id, err)
		}
		rep, err := s.Scrub(remove)
		if err != nil {
			return out, fmt.Errorf("checkpoint: scrub %q: %w", id, err)
		}
		out[id] = rep
	}
	return out, nil
}

// FleetState is the fleet-level durable state that lives beside the
// per-session checkpoints: the capacity assignments in force, the parked
// (admission-pending) sessions in FIFO order, and the miss-ratio-curve
// profiles the allocator planned from. A restarted fleet restores all three,
// so admission decisions, assignments and the constrained settles they drive
// recover bit-identically — the fleet-level half of the crash-equivalence
// contract (the per-session half is State).
type FleetState struct {
	Version int
	// Assignments maps session ID to its capacity assignment in bytes.
	Assignments map[string]int `json:",omitempty"`
	// Pending lists parked session IDs in FIFO admission order.
	Pending []string `json:",omitempty"`
	// Profiles are the per-session miss-ratio curves captured from settled
	// searches, sorted by ID.
	Profiles []allocator.Profile `json:",omitempty"`
}

const fleetStateVersion = 1

func (f *FleetStore) statePath() string { return filepath.Join(f.dir, "fleet-state.json") }

// SaveState persists the fleet-level state atomically (the same
// tmp+fsync+rename discipline as Store.Save).
func (f *FleetStore) SaveState(st *FleetState) error {
	cp := *st
	cp.Version = fleetStateVersion
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: fleet state: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writeAtomicLocked(f.statePath(), b); err != nil {
		return fmt.Errorf("checkpoint: fleet state: %w", err)
	}
	return nil
}

// LoadState reads the persisted fleet-level state, nil (no error) when none
// has been written yet.
func (f *FleetStore) LoadState() (*FleetState, error) {
	b, err := os.ReadFile(f.statePath())
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: fleet state: %w", err)
	}
	var st FleetState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("checkpoint: fleet state: %w", err)
	}
	if st.Version != fleetStateVersion {
		return nil, fmt.Errorf("checkpoint: fleet state version %d, want %d", st.Version, fleetStateVersion)
	}
	return &st, nil
}

// writeAtomicLocked writes bytes to final via tmp+fsync+rename+dir-fsync.
// Caller holds f.mu.
func (f *FleetStore) writeAtomicLocked(final string, b []byte) error {
	tmp := final + ".tmp"
	fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(b); err != nil {
		fh.Close()
		os.Remove(tmp)
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsync: %w", err)
	}
	if err := fh.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(f.dir)
}

// encodeSessionID maps an arbitrary session ID to a filesystem-safe
// directory name, collision-free: plain IDs get an "s-" prefix, anything
// with path-hostile bytes is hex-encoded under an "x-" prefix.
func encodeSessionID(id string) string {
	plain := len(id) > 0 && len(id) <= 128
	for i := 0; plain && i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			plain = false
		}
	}
	if plain {
		return "s-" + id
	}
	return "x-" + hex.EncodeToString([]byte(id))
}

// decodeSessionID inverts encodeSessionID; ok is false for any name the
// encoder would not have produced.
func decodeSessionID(name string) (id string, ok bool) {
	switch {
	case strings.HasPrefix(name, "s-"):
		id = name[2:]
	case strings.HasPrefix(name, "x-"):
		b, err := hex.DecodeString(name[2:])
		if err != nil {
			return "", false
		}
		id = string(b)
	default:
		return "", false
	}
	return id, id != "" && encodeSessionID(id) == name
}
