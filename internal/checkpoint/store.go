package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store manages a directory of checkpoint generations, newest wins. File
// names are ckpt-%08d.stck with a strictly increasing generation number, so
// recency never depends on filesystem timestamps.
type Store struct {
	dir  string
	keep int

	// linked records that this Store has synced the directory holding
	// dir, which OpenStore may have just created without a sync.
	linked bool
}

const (
	filePrefix = "ckpt-"
	fileSuffix = ".stck"
)

// OpenStore opens (creating if necessary) a checkpoint directory. keep is
// how many generations Save retains; at least 2, because keeping only the
// generation being replaced would make every corrupt head unrecoverable.
// The directory is probed for writability so an unwritable store fails the
// daemon at startup, not at its first periodic save minutes later.
func OpenStore(dir string, keep int) (*Store, error) {
	if keep < 2 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	probe := filepath.Join(dir, ".writable.probe")
	f, err := os.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store directory %s is not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return &Store{dir: dir, keep: keep}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// generations lists the generation numbers present, ascending. Files that do
// not parse as generation names (including leftover tmp files) are ignored.
func (s *Store) generations() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Path returns the file path of a generation (exported for the chaos
// harness's corruption injection and for operators poking at a store).
func (s *Store) Path(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", filePrefix, gen, fileSuffix))
}

// Save persists st as the next generation, atomically: the bytes land in a
// tmp file which is fsynced, renamed over the final name, and the directory
// is fsynced so the rename itself is durable. The first Save through a
// Store also fsyncs the directory that holds the store: opening a store
// syncs nothing, so this is what makes a freshly created store directory
// durable before any generation counts on it. Older generations beyond keep
// are pruned afterwards; a crash between rename and prune only leaves extra
// history. Returns the generation written.
func (s *Store) Save(st *State) (uint64, error) {
	buf, err := Encode(st)
	if err != nil {
		return 0, err
	}
	gens, err := s.generations()
	if err != nil {
		return 0, err
	}
	gen := uint64(1)
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	final := s.Path(gen)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: save: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	if !s.linked {
		if err := syncDir(filepath.Dir(s.dir)); err != nil {
			return 0, err
		}
		s.linked = true
	}
	// Prune beyond keep. Best-effort: a failed remove is not a failed save.
	if n := len(gens) + 1 - s.keep; n > 0 {
		for _, g := range gens[:n] {
			os.Remove(s.Path(g))
		}
	}
	return gen, nil
}

// Load returns the newest generation that validates, skipping (and
// reporting) corrupt ones — a torn write or bit rot at the head falls back
// to the previous generation instead of refusing to start. A store with no
// checkpoint files returns (nil, 0, nil): first boot, not an error. A store
// whose every generation is corrupt returns an error carrying the head's
// failure.
func (s *Store) Load() (*State, uint64, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, 0, err
	}
	if len(gens) == 0 {
		return nil, 0, nil
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		b, err := os.ReadFile(s.Path(gens[i]))
		if err == nil {
			var st *State
			if st, err = Decode(b); err == nil {
				return st, gens[i], nil
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("generation %d: %w", gens[i], err)
		}
	}
	return nil, 0, fmt.Errorf("checkpoint: no valid checkpoint among %d generations (%v)", len(gens), firstErr)
}

// GC prunes old generations, keeping the newest keep (at least 2, matching
// OpenStore). Pruning is corruption-aware: when none of the survivors
// validates, the newest older generation that does validate is kept too, so
// a GC run can never turn a store Load could recover into one it cannot —
// the head being corrupt is exactly when the older files matter most.
// Returns the generations removed.
func (s *Store) GC(keep int) ([]uint64, error) {
	if keep < 2 {
		keep = 2
	}
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) <= keep {
		return nil, nil
	}
	valid := func(gen uint64) bool {
		b, err := os.ReadFile(s.Path(gen))
		if err != nil {
			return false
		}
		_, err = Decode(b)
		return err == nil
	}
	cut := len(gens) - keep
	anySurvivorValid := false
	for _, g := range gens[cut:] {
		if valid(g) {
			anySurvivorValid = true
			break
		}
	}
	if !anySurvivorValid {
		// Walk older generations newest-first and spare the first that
		// still validates (and everything newer than it, to keep the
		// retained set contiguous).
		for i := cut - 1; i >= 0; i-- {
			if valid(gens[i]) {
				cut = i
				break
			}
		}
	}
	var removed []uint64
	for _, g := range gens[:cut] {
		if err := os.Remove(s.Path(g)); err != nil {
			return removed, fmt.Errorf("checkpoint: gc: %w", err)
		}
		removed = append(removed, g)
	}
	return removed, nil
}

// ScrubReport summarises one integrity pass over a store's generations.
type ScrubReport struct {
	// Valid lists the generations that decode cleanly (CRC and structure),
	// ascending.
	Valid []uint64
	// Corrupt lists the generations that failed validation, ascending, and
	// Errors carries each one's failure in the same order.
	Corrupt []uint64
	Errors  []string
	// Removed lists the corrupt generations deleted (remove mode only).
	Removed []uint64
}

// Scrub reads every retained generation and validates it end to end — the
// CRC frame and the full decode — reporting which generations bit rot has
// reached before a restart would trip over them. With remove set, corrupt
// generations are deleted; but never when no generation validates at all,
// because a store with nothing valid left is evidence to keep, and deleting
// it would silently turn "recoverable investigation" into "fresh start".
func (s *Store) Scrub(remove bool) (*ScrubReport, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{}
	for _, g := range gens {
		b, err := os.ReadFile(s.Path(g))
		if err == nil {
			_, err = Decode(b)
		}
		if err == nil {
			rep.Valid = append(rep.Valid, g)
			continue
		}
		rep.Corrupt = append(rep.Corrupt, g)
		rep.Errors = append(rep.Errors, err.Error())
	}
	if remove && len(rep.Valid) > 0 {
		for _, g := range rep.Corrupt {
			if err := os.Remove(s.Path(g)); err != nil {
				return rep, fmt.Errorf("checkpoint: scrub: %w", err)
			}
			rep.Removed = append(rep.Removed, g)
		}
	}
	return rep, nil
}

// syncDir makes a completed rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}
