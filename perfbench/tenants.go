package main

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"sync"

	"selftune/internal/cache"
	"selftune/internal/daemon"
	"selftune/internal/energy"
	"selftune/internal/fleet"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// fleetProfiles are the stationary profiles tenant sessions cycle through.
var fleetProfiles = []string{"crc", "mpeg2", "ucbqsort", "blit", "adpcm", "g721", "jpeg", "fir"}

// phaseOffsets picks a phased session's segment profiles: offsets into
// fleetProfiles that are distinct mod len(fleetProfiles), so every segment
// is a different program.
var phaseOffsets = []int{0, 3, 6, 1}

const (
	// energyTail is the stream tail the searched configuration's energy is
	// priced over, long enough that cold misses do not dominate.
	energyTail = 100_000
	// missWindow is the daemon's default measurement window, the unit of
	// the misses-per-window figure.
	missWindow = 10_000
)

// tenant is one session: the bytes the program under test receives, and
// the solo reference its fleet report must equal.
type tenant struct {
	id   string
	wire []byte // STRC-encoded stream
	n    int    // accesses

	want fleet.SessionReport
	// cfg is the configuration the last search picked (the cache layer
	// replays the stream at it); energyRatio is its energy over the
	// stream's tail as a share of the 8K 4-way base's.
	cfg         cache.Config
	energyRatio float64
}

// profileCopy returns a copy of the named profile with its seed replaced.
func profileCopy(name string, seed int64) (*workload.Profile, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", name)
	}
	cp := *p
	cp.Seed = seed
	return &cp, nil
}

// genAccesses builds tenant i's stream for a fleet workload: one stationary
// profile (steady) or segments of different profiles back to back (phased).
func genAccesses(c config, kind string, round, i, length int) ([]trace.Access, error) {
	if c.segments <= 1 {
		p, err := profileCopy(fleetProfiles[i%len(fleetProfiles)], derive(c.seed, c.workload, kind, round, i))
		if err != nil {
			return nil, err
		}
		return p.Generate(length), nil
	}
	seg := length / c.segments
	accs := make([]trace.Access, 0, seg*c.segments)
	for k := 0; k < c.segments; k++ {
		name := fleetProfiles[(i+phaseOffsets[k%len(phaseOffsets)])%len(fleetProfiles)]
		p, err := profileCopy(name, derive(c.seed, c.workload, kind, round, i, k))
		if err != nil {
			return nil, err
		}
		accs = append(accs, p.Generate(seg)...)
	}
	return accs, nil
}

// makeTenants generates and encodes count tenant streams of one round.
// kind separates warm-up tenants from timed ones.
func makeTenants(c config, kind string, round, count, length int) ([]*tenant, error) {
	ts := make([]*tenant, count)
	err := parallelFor(count, func(i int) error {
		accs, err := genAccesses(c, kind, round, i, length)
		if err != nil {
			return err
		}
		ts[i], err = newTenant(fmt.Sprintf("%s-%d-r%d-%s%03d", c.workload, c.seed, round, kind, i), accs)
		return err
	})
	return ts, err
}

// newTenant encodes accs as the tenant's wire stream.
func newTenant(id string, accs []trace.Access) (*tenant, error) {
	var buf bytes.Buffer
	buf.Grow(len(accs) * 3)
	if err := trace.Encode(&buf, accs); err != nil {
		return nil, err
	}
	return &tenant{id: id, wire: buf.Bytes(), n: len(accs)}, nil
}

// decodeWire decodes a tenant's stream.
func decodeWire(t *tenant) ([]trace.Access, error) {
	accs, err := trace.Decode(bytes.NewReader(t.wire))
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", t.id, err)
	}
	return accs, nil
}

// references computes every tenant's solo reference: the stream replayed
// through one daemon.Session with the fleet's session defaults. It also
// rejects byte-identical tenants, so no cross-tenant deduplication can get
// a free win.
func references(ts []*tenant, params *energy.Params) error {
	table := crc64.MakeTable(crc64.ECMA)
	seen := map[uint64]*tenant{}
	for _, t := range ts {
		sum := crc64.Checksum(t.wire, table)
		if other, dup := seen[sum]; dup && bytes.Equal(other.wire, t.wire) {
			return fmt.Errorf("tenants %s and %s have byte-identical streams", other.id, t.id)
		}
		seen[sum] = t
	}
	return parallelFor(len(ts), func(i int) error {
		accs, err := decodeWire(ts[i])
		if err != nil {
			return err
		}
		return soloReference(ts[i], accs, params)
	})
}

// soloReference replays accs through a solo daemon.Session and records the
// report fields a fleet session must reproduce.
func soloReference(t *tenant, accs []trace.Access, params *energy.Params) error {
	s := daemon.NewSession(daemon.Options{})
	defer s.Close()
	for _, a := range accs {
		if _, err := s.Step(a.Addr, a.IsWrite()); err != nil {
			return fmt.Errorf("solo %s: %w", t.id, err)
		}
	}
	t.want = fleet.SessionReport{
		ID:       t.id,
		Consumed: s.Consumed(),
		Windows:  s.Windows(),
		Retunes:  s.Retunes(),
	}
	if out := s.Settled(); out != nil {
		t.want.SettledBytes = out.Cfg.SizeBytes
	}
	t.cfg = s.Config()
	if res, ok := s.LastResult(); ok {
		t.want.MissesPerWindow = float64(res.Best.Stats.Misses)
		t.cfg = res.Best.Cfg
	}
	tail := accs[max(0, len(accs)-energyTail):]
	ev := tuner.NewTraceEvaluator(tail, params)
	t.energyRatio = ev.Evaluate(t.cfg).Energy / ev.Evaluate(cache.BaseConfig()).Energy
	return nil
}

// matches reports whether a fleet session report equals the solo reference
// in every field the fleet derives from the stream, and that the session
// ended healthy and unshed.
func (t *tenant) matches(got fleet.SessionReport) bool {
	w := t.want
	return got.Consumed == w.Consumed && got.Windows == w.Windows && got.Retunes == w.Retunes &&
		got.SettledBytes == w.SettledBytes && got.MissesPerWindow == w.MissesPerWindow &&
		got.Health == fleet.Active && got.Revives == 0 && got.Shed == 0
}

// parallelFor runs f(0..n-1) on parallelism() goroutines and returns the
// first error.
func parallelFor(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < parallelism(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i, stop := next, first != nil
				next++
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
