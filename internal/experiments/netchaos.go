package experiments

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"selftune/internal/cache"
	"selftune/internal/chaosnet"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/faults"
	"selftune/internal/fleet"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// The network chaos soak: stand a real fleet server behind a fault-injecting
// listener — connections reset mid-frame, responses truncated by partial
// writes, scheduling shaken by injected latency — optionally arm worker
// panics inside chosen sessions, and deliver every session's trace through
// the reconnecting retry client. The pinned property is the self-healing
// contract end to end: every session either settles bit-identical to a
// fault-free solo run (however many times its connection died or its worker
// panicked), or it fails in a typed, reasoned way with its durable state a
// clean prefix of the solo decision history. Nothing in between: no torn
// checkpoints, no silently wrong configurations, no cross-tenant damage.

// NetChaosOptions parameterises one soak trial.
type NetChaosOptions struct {
	// Benches are the workload profiles; each is one session whose id is
	// the profile name.
	Benches []string
	// N is accesses per session's trace.
	N int
	// Window is the measurement window.
	Window uint64
	// Seed roots everything: the network fault schedule, the retry jitter.
	Seed uint64
	// Shards is the fleet worker count.
	Shards int
	// Dir is the trial's root directory (required; solo baselines and the
	// fleet both checkpoint under it).
	Dir string
	// Net is the fault model (its Seed field is overridden from Seed).
	Net chaosnet.Options
	// Victims maps a session id to the 1-based meter readout at which a
	// one-shot worker panic fires; the shared count survives re-opens, so
	// the healed life reads clean.
	Victims map[string]uint64
	// StickyVictims re-panic on every readout from the given one, whatever
	// life the session is on — the path that must end in a typed failure.
	StickyVictims map[string]uint64
	// Retries bounds each client's delivery attempts (default 20).
	Retries int
	// Chunk is the wire frame payload size (default 2048 — small frames put
	// many cut points inside a stream).
	Chunk int
	// CheckpointEvery passes to every daemon (default 1: aggressive
	// checkpointing exercises resume hardest).
	CheckpointEvery uint64
	// Rec, when non-nil, receives the fleet's telemetry.
	Rec obs.Recorder
}

// NetChaosSession is one session's verdict.
type NetChaosSession struct {
	ID string
	// Attempts is how many connections the retry client tried.
	Attempts int
	// Delivered reports whether the server acknowledged the final close.
	Delivered bool
	// Failures are the failed attempts' errors, in order — every one must
	// be a typed, reasoned message.
	Failures []string
	// Identical reports the durable outcome matched the solo run exactly
	// (only meaningful when Delivered).
	Identical bool
	// PrefixEvents is how many solo decisions the durable state had
	// faithfully reached when the session was left undelivered.
	PrefixEvents int
	// Consumed is the durable consumed count.
	Consumed uint64
}

// NetChaosOutcome reports one soak trial.
type NetChaosOutcome struct {
	Sessions []NetChaosSession
	// TotalAttempts sums connections across sessions; > len(Sessions) means
	// the storm actually bit.
	TotalAttempts int
	// Equivalent is the verdict; Mismatch names the first violation.
	Equivalent bool
	Mismatch   string
}

// soloDurable runs one trace solo with persistence and returns the durable
// view a resumed daemon restores — the same lens the fleet session's final
// state is read through.
func soloDurable(dir string, window, every uint64, accs []trace.Access) ([]checkpoint.Event, *checkpoint.Outcome, uint64, error) {
	d, err := daemon.New(daemon.Options{Window: window, Dir: dir, CheckpointEvery: every})
	if err != nil {
		return nil, nil, 0, err
	}
	for _, a := range accs {
		if err := d.Step(a.Addr, a.IsWrite()); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, nil, 0, err
	}
	ev, st, n, _, err := durableView(dir, window)
	return ev, st, n, err
}

// durableView reopens a checkpoint directory and returns what it restores.
// recovered is false when no valid checkpoint exists (a session that died
// before its first boundary).
func durableView(dir string, window uint64) (ev []checkpoint.Event, st *checkpoint.Outcome, consumed uint64, recovered bool, err error) {
	d, err := daemon.New(daemon.Options{Window: window, Dir: dir})
	if err != nil {
		return nil, nil, 0, false, err
	}
	if !d.Recovered() {
		return nil, nil, 0, false, nil
	}
	return d.Events(), d.Settled(), d.Consumed(), true, nil
}

// NetChaos runs one network chaos soak trial.
func NetChaos(opt NetChaosOptions) (*NetChaosOutcome, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("netchaos: Dir is required")
	}
	if len(opt.Benches) == 0 {
		return nil, fmt.Errorf("netchaos: no benches")
	}
	if opt.Retries == 0 {
		opt.Retries = 20
	}
	if opt.Chunk == 0 {
		opt.Chunk = 2048
	}
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 1
	}
	if opt.Shards == 0 {
		opt.Shards = 2
	}
	opt.Net.Seed = faults.Derive(opt.Seed, "net")

	// Traces, wire bytes and fault-free solo baselines per session.
	type baseline struct {
		stream   []byte
		events   []checkpoint.Event
		settled  *checkpoint.Outcome
		consumed uint64
	}
	ids := append([]string(nil), opt.Benches...)
	sort.Strings(ids)
	bases := map[string]*baseline{}
	for _, id := range ids {
		prof, ok := workload.ByName(id)
		if !ok {
			return nil, fmt.Errorf("netchaos: unknown benchmark %q", id)
		}
		accs := prof.Generate(opt.N)
		var enc bytes.Buffer
		if err := trace.Encode(&enc, accs); err != nil {
			return nil, err
		}
		ev, st, n, err := soloDurable(filepath.Join(opt.Dir, "solo", id), opt.Window, opt.CheckpointEvery, accs)
		if err != nil {
			return nil, fmt.Errorf("netchaos: solo %s: %w", id, err)
		}
		bases[id] = &baseline{stream: enc.Bytes(), events: ev, settled: st, consumed: n}
	}

	// One meter instance per victim, shared across every life the session
	// lives: counts survive quarantine, revival and wire re-opens.
	meters := map[string]func(cache.Config, cache.Stats) cache.Stats{}
	for id, n := range opt.Victims {
		meters[id] = faults.PanicMeter(n)
	}
	for id, n := range opt.StickyVictims {
		meters[id] = faults.PanicMeterSticky(n)
	}

	fleetDir := filepath.Join(opt.Dir, "fleet")
	m, err := fleet.New(fleet.Options{
		Shards: opt.Shards,
		Dir:    fleetDir,
		Rec:    opt.Rec,
		Session: daemon.Options{
			Window:          opt.Window,
			CheckpointEvery: opt.CheckpointEvery,
		},
		Configure: func(id string, o *daemon.Options) {
			if mt := meters[id]; mt != nil {
				o.Meter = mt
			}
		},
	})
	if err != nil {
		return nil, err
	}

	// A real TCP server behind the fault-injecting listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	chaosLn := chaosnet.WrapListener(ln, opt.Net)
	var conns sync.WaitGroup
	go func() {
		for {
			c, err := chaosLn.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				// Ingest failures ARE the chaos; sessions a dead connection
				// still owned are closed at their last good state by the
				// ingest cleanup.
				m.IngestConn(c)
			}()
		}
	}()

	// Deliver each session through the retry client, sequentially: accept
	// ordinals — and so each connection's fault plan — are deterministic.
	out := &NetChaosOutcome{Equivalent: true}
	addr := ln.Addr().String()
	results := map[string]*NetChaosSession{}
	for _, id := range ids {
		rc := &fleet.RetryClient{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Seed:        faults.Derive(opt.Seed, "client", id),
			MaxAttempts: opt.Retries,
			Chunk:       opt.Chunk,
			Sleep:       func(time.Duration) {}, // pacing never touches decisions
		}
		rep, err := rc.Run(id, bases[id].stream)
		s := &NetChaosSession{ID: id, Attempts: rep.Attempts, Failures: rep.Failures, Delivered: err == nil}
		results[id] = s
		out.TotalAttempts += rep.Attempts
	}

	// Quiesce: no more dials; drain every server-side connection, then shut
	// the fleet down so all durable state is final before comparison.
	ln.Close()
	conns.Wait()
	// Close may report sessions that failed terminally; those verdicts are
	// already typed per session, so the fleet-level aggregate is not part of
	// this trial's property.
	_ = m.Close()

	// Verdicts against the durable views.
	fs, err := checkpoint.OpenFleetStore(fleetDir, 0)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) {
		if out.Equivalent {
			out.Equivalent = false
			out.Mismatch = fmt.Sprintf(format, args...)
		}
	}
	for _, id := range ids {
		s, base := results[id], bases[id]
		ev, st, consumed, recovered, err := durableView(fs.SessionDir(id), opt.Window)
		if err != nil {
			return nil, fmt.Errorf("netchaos: reopen %s: %w", id, err)
		}
		s.Consumed = consumed
		if s.Delivered {
			if !recovered {
				fail("%s: delivered but no durable state", id)
			} else {
				s.Identical = consumed == base.consumed &&
					reflect.DeepEqual(st, base.settled) &&
					reflect.DeepEqual(ev, base.events)
				if !s.Identical {
					fail("%s: delivered but diverged from solo (consumed %d vs %d, %d vs %d decisions)",
						id, consumed, base.consumed, len(ev), len(base.events))
				}
			}
		} else {
			// Undelivered: every failure must be typed and the durable state
			// a clean prefix of the solo decision history.
			for _, f := range s.Failures {
				if f == "" {
					fail("%s: untyped failure", id)
				}
			}
			if recovered {
				if consumed > base.consumed {
					fail("%s: undelivered yet consumed %d past the solo run's %d", id, consumed, base.consumed)
				}
				if len(ev) > len(base.events) {
					fail("%s: undelivered yet logged %d decisions past the solo run's %d", id, len(ev), len(base.events))
				} else {
					s.PrefixEvents = len(ev)
					for i := range ev {
						if ev[i] != base.events[i] {
							fail("%s: durable decision %d diverged from solo", id, i)
							break
						}
					}
				}
			}
		}
		out.Sessions = append(out.Sessions, *s)
	}
	return out, nil
}
