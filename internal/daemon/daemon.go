// Package daemon is the crash-safe, long-running face of the self-tuning
// cache. Session is the per-stream tuning loop — window accounting, the
// paper's heuristic over measurement windows, miss-rate-drift re-tuning (a
// phase change), watchdog fallback to the safe configuration, and boundary
// snapshots. Daemon composes exactly one Session with a checkpoint.Store:
// it persists the session's state durably so that being killed at any
// instant costs nothing but a little redone work. The fleet manager
// (internal/fleet) composes many Sessions instead, sharded across workers.
//
// The recovery model is replay from the last boundary: a checkpoint captures
// the session at a measurement-window boundary (cache image, tuning-session
// transcript, consumed-access count, phase counters). On restart the daemon
// skips the consumed prefix of the stream and continues; because the cache
// and the heuristic are deterministic, the continuation is bit-identical to
// a run that never died. internal/experiments' chaos harness pins exactly
// that property.
package daemon

import (
	"context"
	"fmt"
	"log/slog"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// Options configures a Daemon (and, persistence fields aside, a Session).
type Options struct {
	// Params is the energy model; nil uses DefaultParams.
	Params *energy.Params
	// Window is the accesses per tuner measurement window (and per phase
	// observation window once settled). Default 10000.
	Window uint64
	// Dir is the checkpoint directory; "" disables persistence (the
	// daemon still builds boundary snapshots, it just never writes them).
	// Opening an unwritable directory fails at startup.
	Dir string
	// CheckpointEvery persists a snapshot every this many window
	// boundaries. Default 8. Kills between persists lose at most that
	// much progress, never correctness.
	CheckpointEvery uint64
	// Keep is how many checkpoint generations to retain. Default 4.
	Keep int
	// PhaseThreshold is the absolute miss-rate drift from the
	// post-settle baseline that triggers a re-tune. Default 0.02.
	PhaseThreshold float64
	// WatchdogWindows aborts a tuning session that has consumed this
	// many measurement windows without settling, falling back to
	// SafeConfig; 0 means the default 64 (the full search needs ~30 even
	// with every window re-measured).
	WatchdogWindows uint64
	// BudgetBytes is the session's initial capacity assignment: every
	// search is constrained to configurations of at most this footprint
	// (tuner.Space.Constrain). 0 means unconstrained. SetBudget changes
	// the assignment mid-stream — the fleet manager's reallocation path.
	BudgetBytes int
	// Meter is the counter-readout seam (fault injection); nil is a
	// perfect readout.
	Meter tuner.Meter
	// MaxEvents caps the in-memory decision log (and therefore its
	// checkpointed copy): when the log exceeds the cap the oldest
	// entries are dropped and counted in EventsDropped. Default 1024;
	// negative disables the cap.
	MaxEvents int
	// Rec receives daemon telemetry (window observations, drift
	// detections, settles, watchdog aborts, checkpoint persists and
	// recoveries) and is threaded into each tuning session for per-step
	// events. nil records nothing; recording is strictly observational
	// and changes no tuning decision.
	Rec obs.Recorder
	// Reg, when non-nil, receives the daemon's gauges (consumed,
	// windows, retunes, checkpoints, dropped events, tuning flag,
	// settled miss rate), refreshed at every window boundary.
	Reg *obs.Registry
	// Hists receives the wall-clock latency distributions (search,
	// checkpoint persist, shutdown drain). nil with a non-nil Reg
	// auto-registers the default families on Reg; nil with a nil Reg
	// records no latency. The fleet manager passes one shared set so all
	// its sessions aggregate into the same families.
	Hists *SessionHists
}

func (o *Options) fill() {
	if o.Params == nil {
		o.Params = energy.DefaultParams()
	}
	if o.Window == 0 {
		o.Window = 10_000
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 8
	}
	if o.Keep == 0 {
		o.Keep = 4
	}
	if o.PhaseThreshold == 0 {
		o.PhaseThreshold = 0.02
	}
	if o.WatchdogWindows == 0 {
		o.WatchdogWindows = 64
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 1024
	}
}

// Daemon is one self-tuning cache with durable state: a Session plus the
// persistence cadence over its boundary snapshots.
type Daemon struct {
	opts  Options
	store *checkpoint.Store // nil when persistence is disabled
	sess  *Session

	boundaries  uint64 // boundary snapshots since the last persist
	checkpoints uint64 // snapshots persisted this process lifetime

	status statusCell // /statusz snapshot, rebuilt at boundaries
}

// New builds a daemon, recovering from the newest valid checkpoint in
// opts.Dir when one exists (falling back past corrupt generations) and
// starting fresh otherwise. Old generations beyond opts.Keep are pruned at
// startup (Store.GC), which never removes the last loadable generation.
func New(opts Options) (*Daemon, error) {
	opts.fill()
	if opts.Reg != nil && opts.Hists == nil {
		opts.Hists = NewSessionHists(opts.Reg)
	}
	d := &Daemon{opts: opts}
	if opts.Dir != "" {
		st, err := checkpoint.OpenStore(opts.Dir, opts.Keep)
		if err != nil {
			return nil, err
		}
		d.store = st
		if _, err := st.GC(opts.Keep); err != nil {
			return nil, err
		}
		snap, gen, err := st.Load()
		if err != nil {
			return nil, err
		}
		if snap != nil {
			s, err := ResumeSession(opts, snap)
			if err != nil {
				return nil, err
			}
			d.sess = s
			s.NoteRecovered(gen)
			d.gauges()
			return d, nil
		}
	}
	d.sess = NewSession(opts)
	d.gauges()
	return d, nil
}

// gauges refreshes the registry's view of the daemon (and the /statusz
// snapshot). Gauge stores are atomic, so a concurrent /metrics scrape reads
// a coherent value.
func (d *Daemon) gauges() {
	d.snapshotStatus()
	reg := d.opts.Reg
	if reg == nil {
		return
	}
	s := d.sess
	reg.Gauge("daemon_consumed_accesses").Set(float64(s.consumed))
	reg.Gauge("daemon_windows_total").Set(float64(s.windows))
	reg.Gauge("daemon_retunes_total").Set(float64(s.retunes))
	reg.Gauge("daemon_checkpoints_total").Set(float64(d.checkpoints))
	reg.Gauge("daemon_events_dropped_total").Set(float64(s.eventsDropped))
	reg.Gauge("daemon_budget_bytes").Set(float64(s.budget))
	tuning := 0.0
	if s.search != nil {
		tuning = 1
	}
	reg.Gauge("daemon_tuning").Set(tuning)
	if s.baselined {
		reg.Gauge("daemon_baseline_miss_rate").Set(s.baseline)
	}
}

// Recovered reports whether this daemon resumed from a checkpoint.
func (d *Daemon) Recovered() bool { return d.sess.Recovered() }

// StepBatch feeds a block of accesses and returns how many it consumed,
// stopping at every window boundary exactly as Session.StepBatch does, so
// the persist cadence and gauges see each boundary. Callers loop until accs
// is consumed. The error is a persistence or snapshot failure (snapshots
// that cannot be written must not pass silently); the consumed accesses
// always complete.
func (d *Daemon) StepBatch(accs []trace.Access) (n int, boundary bool, err error) {
	n, boundary, err = d.sess.StepBatch(accs)
	return n, boundary, d.afterStep(boundary, err)
}

// afterStep runs the persistence cadence after a step that reached a
// boundary.
func (d *Daemon) afterStep(boundary bool, err error) error {
	if err != nil || !boundary {
		return err
	}
	d.boundaries++
	if d.store != nil && d.boundaries >= d.opts.CheckpointEvery {
		if err := d.persist(d.sess.Pending()); err != nil {
			return err
		}
	}
	d.gauges()
	return nil
}

// persist writes one snapshot and records the act. The "daemon.persist"
// span is a lifecycle pair like daemon.checkpoint: its coordinates are
// deterministic stream positions, but how often it appears depends on the
// persist cadence, so crash-equivalence comparisons exclude it. Its
// wall-clock lands only in the persist histogram.
func (d *Daemon) persist(st *checkpoint.State) error {
	sp := d.sess.span("daemon.persist", d.opts.Hists.persist())
	gen, err := d.store.Save(st)
	if err != nil {
		return err
	}
	sp.End(
		slog.Uint64("work", d.boundaries),
		slog.String("unit", "boundaries"))
	d.boundaries = 0
	d.checkpoints++
	d.sess.NoteCheckpoint(gen)
	return nil
}

// runBlock is how many accesses Run steps between cancellation checks.
const runBlock = 4096

// Run streams accs into the daemon until the stream ends or ctx is
// cancelled. accs must be the trace from its beginning: Run skips the
// prefix a previous life already consumed, which is what makes a restarted
// daemon continue rather than start over. On cancellation the daemon drains
// the in-flight measurement window to its boundary first (at most ~1.25
// windows of accesses), so the final persisted checkpoint covers every
// consumed access, then returns ctx.Err(). stcd's local mode drives it.
func (d *Daemon) Run(ctx context.Context, accs []trace.Access) error {
	if consumed := d.sess.Consumed(); uint64(len(accs)) < consumed {
		return fmt.Errorf("daemon: stream ends at %d accesses but the checkpoint consumed %d", len(accs), consumed)
	}
	accs = accs[d.sess.Consumed():]
	// Accesses are stepped a block at a time; cancellation is checked
	// between blocks.
	for {
		if ctx.Err() != nil {
			return d.drain(ctx, accs)
		}
		n := min(len(accs), runBlock)
		for block := accs[:n]; len(block) > 0; {
			m, _, err := d.StepBatch(block)
			if err != nil {
				return err
			}
			block = block[m:]
		}
		accs = accs[n:]
		if n < runBlock {
			return d.Close()
		}
	}
}

// drain finishes the in-flight measurement window after a cancellation:
// shutting down mid-window would persist the last boundary and replay the
// partial window on restart — correct, but wasteful — so the daemon keeps
// consuming the rest of accs until the next boundary (or the stream's end)
// and only then takes the final snapshot. StepBatch stops at every
// boundary, so the drain never steps past the one it waits for.
func (d *Daemon) drain(ctx context.Context, accs []trace.Access) error {
	// The drain span's coordinates depend on where cancellation landed in
	// the stream — a lifecycle pair (like daemon.persist), not a decision.
	sp := d.sess.span("daemon.drain", d.opts.Hists.drain())
	var drained uint64
	for len(accs) > 0 && !d.sess.AtBoundary() {
		m, _, err := d.StepBatch(accs)
		if err != nil {
			return err
		}
		accs = accs[m:]
		drained += uint64(m)
	}
	sp.End(
		slog.Uint64("work", drained),
		slog.String("unit", "accesses"))
	if err := d.Close(); err != nil {
		return err
	}
	return ctx.Err()
}

// Close persists the most recent boundary snapshot, so a graceful shutdown
// resumes exactly where it stopped, losing at most the partial window after
// the boundary. Safe to call more than once. A daemon abandoned without
// Close — the chaos harness's stand-in for SIGKILL — leaves durable state at
// whatever the periodic checkpoints already wrote.
func (d *Daemon) Close() error {
	if d.store != nil && d.sess.Pending() != nil && d.boundaries > 0 {
		return d.persist(d.sess.Pending())
	}
	return nil
}

// SetBudget changes the capacity assignment (see Session.SetBudget) and
// refreshes the gauges. Call between Steps only.
func (d *Daemon) SetBudget(n int) {
	d.sess.SetBudget(n)
	d.gauges()
}

// Budget is the capacity assignment in force, 0 when unconstrained.
func (d *Daemon) Budget() int { return d.sess.Budget() }

// Session exposes the daemon's stream loop (for status beyond the
// delegating accessors below).
func (d *Daemon) Session() *Session { return d.sess }

// Consumed is the number of accesses taken from the stream.
func (d *Daemon) Consumed() uint64 { return d.sess.Consumed() }

// Windows is the lifetime count of completed measurement windows.
func (d *Daemon) Windows() uint64 { return d.sess.Windows() }

// Retunes counts tuning sessions started after the first.
func (d *Daemon) Retunes() uint64 { return d.sess.Retunes() }

// Tuning reports whether a search is currently running.
func (d *Daemon) Tuning() bool { return d.sess.Tuning() }

// Config is the cache's current configuration.
func (d *Daemon) Config() cache.Config { return d.sess.Config() }

// Settled is the outcome in force, nil while searching.
func (d *Daemon) Settled() *checkpoint.Outcome { return d.sess.Settled() }

// Events returns the decision log so far (the newest MaxEvents entries;
// see EventsDropped for what the cap discarded).
func (d *Daemon) Events() []checkpoint.Event { return d.sess.Events() }

// EventsDropped counts decision-log entries discarded by the MaxEvents cap
// over the daemon's lifetime (surviving kill/resume via the checkpoint).
func (d *Daemon) EventsDropped() uint64 { return d.sess.EventsDropped() }

// Stats exposes the cache's counters (for status reporting).
func (d *Daemon) Stats() cache.Stats { return d.sess.Stats() }
