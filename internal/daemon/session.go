package daemon

import (
	"fmt"
	"log/slog"
	"time"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/fastsim"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// Session is one self-tuning cache's stream loop: window accounting, the
// tuning search, miss-rate-drift re-tuning, the watchdog, and boundary
// snapshots — everything Daemon does except persistence. It exists so one
// process can run many: the fleet manager (internal/fleet) multiplexes
// Sessions across worker shards, while Daemon composes exactly one Session
// with a checkpoint.Store for the single-stream cmd/tuned. A Session is not
// safe for concurrent use; its owner serialises Step calls.
//
// Persistence stays outside: Step and StepBatch report when a
// measurement-window boundary was reached and the boundary snapshot rebuilt
// (Pending), and the owner decides when to write it. Options.Dir,
// CheckpointEvery, Keep and Reg are ignored at this layer.
//
// The cache is the live fastsim.Kernel, reconfigured in place by the tuner;
// it behaves, and images, bit-identically to the reference
// cache.Configurable (the differential oracle in internal/fastsim pins it).
type Session struct {
	opts Options

	cache   *fastsim.Kernel
	search  *tuner.Online       // nil once settled
	settled *checkpoint.Outcome // nil while the first session runs

	consumed       uint64 // accesses taken from the stream
	windows        uint64 // lifetime measurement windows
	retunes        uint64
	sessionWindows uint64 // windows in the current search (watchdog)

	// Phase detector, active only while settled.
	baselined       bool
	baseline        float64
	winAcc, winMiss uint64

	// budget is the capacity assignment in force (0 = unconstrained):
	// every search the session starts is constrained to at most this
	// footprint. Changed mid-stream by SetBudget, persisted in the
	// boundary snapshot.
	budget int

	// events is the decision log, capped at opts.MaxEvents by dropping
	// from the front; eventsDropped counts what the cap discarded and is
	// checkpointed alongside, so a resumed session's log and drop count
	// match an uninterrupted one's exactly.
	events        []checkpoint.Event
	eventsDropped uint64

	rec obs.Recorder

	// pending is the snapshot built at the most recent boundary; the
	// owner persists it so a graceful shutdown loses nothing.
	pending   *checkpoint.State
	recovered bool

	// lastResult is the most recent completed search (the examined
	// configurations are the fleet allocator's miss-ratio-curve raw
	// material); hasResult distinguishes it from the zero value.
	lastResult tuner.SearchResult
	hasResult  bool

	// searchT0 marks when the current search started, wall-clock. It feeds
	// only the search-latency histogram (opts.Hists) — never an event or a
	// checkpoint — so it is deliberately not part of the snapshot.
	searchT0 time.Time

	// one is Step's single-access block, kept here so Step allocates
	// nothing.
	one [1]trace.Access
}

// NewSession starts a fresh stream loop. opts is filled with the same
// defaults as Daemon's; its persistence fields are ignored here.
func NewSession(opts Options) *Session {
	opts.fill()
	s := &Session{opts: opts, rec: obs.OrNop(opts.Rec), budget: opts.BudgetBytes}
	k, err := fastsim.NewLive(cache.MinConfig())
	if err != nil {
		panic("daemon: " + err.Error()) // MinConfig is valid by construction
	}
	s.cache = k
	s.search = s.newSearch()
	return s
}

// ResumeSession rebuilds the stream loop from a checkpoint. The caller
// obtained st from a checkpoint.Store (or FleetStore) load; determinism of
// the cache image plus the search transcript makes the continuation
// bit-identical to a session that never died.
func ResumeSession(opts Options, st *checkpoint.State) (*Session, error) {
	opts.fill()
	s := &Session{opts: opts, rec: obs.OrNop(opts.Rec)}
	s.budget = st.Budget
	if s.budget == 0 {
		// Pre-budget checkpoint (or a first life that never persisted one):
		// fall back to the configured assignment.
		s.budget = opts.BudgetBytes
	}
	c, err := fastsim.Restore(st.Cache)
	if err != nil {
		return nil, fmt.Errorf("daemon: recover: %w", err)
	}
	s.cache = c
	if st.Session != nil {
		o, err := tuner.ResumeOnline(c, opts.Params, st.Session.TunerState(), tuner.OnlineOptions{Meter: opts.Meter, Rec: opts.Rec, Session: st.Retunes})
		if err != nil {
			return nil, fmt.Errorf("daemon: recover: %w", err)
		}
		s.search = o
		// The resumed search's latency clock restarts here: the histogram
		// then reports this life's wall-clock, which is the only honest
		// number a restarted process has.
		s.searchT0 = time.Now()
	}
	s.settled = st.Settled
	s.consumed = st.Consumed
	s.windows = st.Windows
	s.retunes = st.Retunes
	s.sessionWindows = st.SessionWindows
	s.baselined = st.Baselined
	s.baseline = st.Baseline
	s.winAcc, s.winMiss = st.WinAcc, st.WinMiss
	s.events = append([]checkpoint.Event(nil), st.Events...)
	s.eventsDropped = st.EventsDropped
	s.pending = st
	s.recovered = true
	return s, nil
}

// newSearch starts a tuning search on the live cache, threading the
// telemetry seam through: the session ordinal is the re-tune count, so a
// resumed session's searches keep their coordinates. The search is
// constrained to the session's capacity budget, cold-started from the
// space's smallest configuration.
func (s *Session) newSearch() *tuner.Online {
	return s.newSearchFrom(cache.Config{})
}

// newSearchFrom is newSearch warm-started at start (the budget-change
// re-search path; zero value cold-starts).
func (s *Session) newSearchFrom(start cache.Config) *tuner.Online {
	s.searchT0 = time.Now()
	return tuner.NewOnline(s.cache, s.opts.Params, tuner.OnlineOptions{Window: s.opts.Window, Meter: s.opts.Meter, Rec: s.opts.Rec, Session: s.retunes, MaxBytes: s.budget, Start: start})
}

// span opens a deterministic span at the session's current coordinates (the
// same scheme emit uses). The caller Ends it with work-unit fields; the
// histogram, if any, receives the wall-clock duration.
func (s *Session) span(name string, hist *obs.Histogram) obs.Span {
	return obs.BeginSpan(s.rec, hist, obs.Event{
		Name:    name,
		Session: s.retunes,
		Window:  s.windows,
		Step:    s.consumed,
		Config:  s.cache.Config().String(),
	})
}

// emit records one session event. Coordinates are deterministic stream
// positions (session = re-tune ordinal, window = lifetime measurement-window
// count, step = consumed-access position), never wall-clock, so a
// killed-and-resumed session re-emits identical events for the windows it
// re-executes and deduplication by coordinates reconstructs the
// uninterrupted log.
func (s *Session) emit(name, cfg string, fields ...slog.Attr) {
	if !s.rec.Enabled() {
		return
	}
	s.rec.Record(obs.Event{
		Name:    name,
		Session: s.retunes,
		Window:  s.windows,
		Step:    s.consumed,
		Config:  cfg,
		Fields:  append([]slog.Attr{slog.Uint64("at", s.consumed)}, fields...),
	})
}

// appendEvent adds one entry to the decision log and enforces the cap.
func (s *Session) appendEvent(ev checkpoint.Event) {
	s.events = append(s.events, ev)
	if max := s.opts.MaxEvents; max > 0 && len(s.events) > max {
		drop := len(s.events) - max
		s.eventsDropped += uint64(drop)
		s.events = append(s.events[:0], s.events[drop:]...)
	}
}

// Step feeds one access. boundary reports that a measurement-window boundary
// was reached and Pending rebuilt — the owner's cue to consider persisting.
// The error is a snapshot-construction failure; the access itself always
// completes. Step is StepBatch over a one-access block, so window accounting
// has a single implementation.
func (s *Session) Step(addr uint32, write bool) (boundary bool, err error) {
	kind := trace.DataRead
	if write {
		kind = trace.DataWrite
	}
	s.one[0] = trace.Access{Addr: addr, Kind: kind}
	_, boundary, err = s.StepBatch(s.one[:])
	return boundary, err
}

// StepBatch feeds a block of accesses and returns how many it consumed: all
// of accs, or fewer when a measurement-window boundary is reached first —
// it stops at every boundary (boundary true, Pending rebuilt), so the owner
// sees each one exactly as per-access Step would report it. Callers loop
// until accs is consumed. Only trace.DataWrite accesses store. The error is
// a snapshot-construction failure; the consumed accesses always complete.
func (s *Session) StepBatch(accs []trace.Access) (n int, boundary bool, err error) {
	if s.search != nil {
		for n < len(accs) {
			before := s.search.CompletedWindows()
			m := s.search.Replay(accs[n:])
			n += m
			s.consumed += uint64(m)
			closed := s.search.CompletedWindows() != before
			if closed {
				s.windows++
				s.sessionWindows++
			}
			if s.search.Done() {
				s.settle()
				return n, true, s.boundary()
			}
			if closed {
				if s.sessionWindows >= s.opts.WatchdogWindows {
					s.watchdog()
				}
				return n, true, s.boundary()
			}
		}
		return n, false, nil
	}

	// Settled: serve up to the window end and watch for a phase change.
	n = len(accs)
	if room := s.opts.Window - s.winAcc; uint64(n) > room {
		n = int(room)
	}
	misses := s.cache.Misses()
	s.cache.ReplayBatch(accs[:n])
	s.winMiss += s.cache.Misses() - misses
	s.winAcc += uint64(n)
	s.consumed += uint64(n)
	if s.winAcc < s.opts.Window {
		return n, false, nil
	}
	mr := float64(s.winMiss) / float64(s.winAcc)
	s.winAcc, s.winMiss = 0, 0
	if !s.baselined {
		// First full window after settling fixes the baseline the drift
		// is measured against.
		s.baselined = true
		s.baseline = mr
		s.emit("daemon.window", s.cache.Config().String(),
			slog.Float64("miss_rate", mr), slog.Bool("baseline", true))
		return n, true, s.boundary()
	}
	drift := mr - s.baseline
	if drift < 0 {
		drift = -drift
	}
	s.emit("daemon.window", s.cache.Config().String(),
		slog.Float64("miss_rate", mr),
		slog.Float64("baseline_rate", s.baseline),
		slog.Float64("drift", drift))
	if drift > s.opts.PhaseThreshold {
		s.emit("daemon.drift", s.cache.Config().String(),
			slog.Float64("miss_rate", mr),
			slog.Float64("baseline_rate", s.baseline),
			slog.Float64("drift", drift),
			slog.Float64("threshold", s.opts.PhaseThreshold))
		s.retune()
	}
	return n, true, s.boundary()
}

// settle records a finished search's outcome and switches to observing.
func (s *Session) settle() {
	s.opts.Hists.search().ObserveSince(s.searchT0)
	res := s.search.Result()
	s.lastResult = res
	s.hasResult = true
	s.settled = &checkpoint.Outcome{
		Cfg:      res.Best.Cfg,
		Energy:   res.Best.Energy,
		Degraded: res.Degraded,
		SettleWB: s.search.SettleWritebacks(),
		At:       s.consumed,
	}
	kind := "settle"
	if res.Degraded {
		kind = "degraded"
	}
	s.appendEvent(checkpoint.Event{At: s.consumed, Kind: kind, Cfg: res.Best.Cfg, Energy: res.Best.Energy})
	s.emit("daemon."+kind, res.Best.Cfg.String(),
		slog.Float64("energy", res.Best.Energy),
		slog.Int("examined", res.NumExamined()),
		slog.Uint64("settle_writebacks", s.search.SettleWritebacks()))
	s.search = nil
	s.sessionWindows = 0
	s.baselined = false
	s.winAcc, s.winMiss = 0, 0
}

// retune starts a fresh search on the live cache (the search restarts from
// the smallest configuration, as the on-chip tuner would).
func (s *Session) retune() {
	s.retunes++
	s.appendEvent(checkpoint.Event{At: s.consumed, Kind: "retune", Cfg: s.cache.Config()})
	s.emit("daemon.retune", s.cache.Config().String(), slog.String("reason", "drift"))
	s.settled = nil
	s.sessionWindows = 0
	s.search = s.newSearch()
}

// SetBudget changes the session's capacity assignment to n bytes (0 lifts
// the constraint). A changed assignment invalidates whatever the session
// settled on — or the space the running search is walking — so it triggers a
// constrained re-search, warm-started from the current configuration
// (clamped into the new budget) rather than a cold walk from the smallest.
// The re-search counts as a re-tune so its telemetry coordinates never
// collide with the abandoned search's. No-op when n equals the assignment
// in force. Must be called between Steps (the session is single-owner).
func (s *Session) SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	if n == s.budget {
		return
	}
	prev := s.budget
	s.budget = n
	s.appendEvent(checkpoint.Event{At: s.consumed, Kind: "budget", Cfg: s.cache.Config(), Budget: n})
	s.emit("daemon.budget", s.cache.Config().String(),
		slog.Int("budget_bytes", n),
		slog.Int("prev_bytes", prev),
		slog.Int("excluded", tuner.ExcludedByBudget(tuner.DefaultSpace(), n)))
	s.retunes++
	s.appendEvent(checkpoint.Event{At: s.consumed, Kind: "retune", Cfg: s.cache.Config(), Budget: n})
	s.emit("daemon.retune", s.cache.Config().String(),
		slog.String("reason", "budget"),
		slog.Int("budget_bytes", n))
	s.settled = nil
	s.sessionWindows = 0
	s.baselined = false
	s.winAcc, s.winMiss = 0, 0
	s.search = s.newSearchFrom(tuner.ClampToBudget(s.cache.Config(), n, tuner.DefaultSpace()))
}

// Budget is the capacity assignment in force, 0 when unconstrained.
func (s *Session) Budget() int { return s.budget }

// watchdog aborts a search that failed to settle within the window budget
// and parks the cache on SafeConfig — a wedged search must not hold the
// cache at whatever half-swept configuration it was probing.
func (s *Session) watchdog() {
	s.opts.Hists.search().ObserveSince(s.searchT0)
	s.search = nil
	safe := tuner.SafeConfig()
	if err := s.cache.SetConfig(safe); err != nil {
		panic("daemon: safe-config transition rejected: " + err.Error())
	}
	s.settled = &checkpoint.Outcome{Cfg: safe, Degraded: true, At: s.consumed}
	s.appendEvent(checkpoint.Event{At: s.consumed, Kind: "watchdog", Cfg: safe})
	s.emit("daemon.watchdog", safe.String(),
		slog.Uint64("session_windows", s.sessionWindows),
		slog.Uint64("budget", s.opts.WatchdogWindows))
	s.sessionWindows = 0
	s.baselined = false
	s.winAcc, s.winMiss = 0, 0
}

// boundary builds the snapshot for the boundary just reached.
func (s *Session) boundary() error {
	img, err := s.cache.Image()
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	st := &checkpoint.State{
		Consumed:       s.consumed,
		Windows:        s.windows,
		Retunes:        s.retunes,
		Cache:          img,
		Settled:        s.settled,
		Baselined:      s.baselined,
		Baseline:       s.baseline,
		WinAcc:         s.winAcc,
		WinMiss:        s.winMiss,
		SessionWindows: s.sessionWindows,
		Budget:         s.budget,
		Events:         append([]checkpoint.Event(nil), s.events...),
		EventsDropped:  s.eventsDropped,
	}
	if s.search != nil {
		ss, err := s.search.Snapshot()
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		st.Session = checkpoint.WireSession(ss)
	}
	s.pending = st
	return nil
}

// NoteCheckpoint records that the owner persisted a snapshot (a lifecycle
// event, not a decision: its generation number depends on how often the
// owner has saved, so it is excluded from crash-equivalence comparisons).
func (s *Session) NoteCheckpoint(gen uint64) {
	s.emit("daemon.checkpoint", s.cache.Config().String(),
		slog.Uint64("generation", gen))
}

// NoteRecovered records that the session was rebuilt from a checkpoint
// generation.
func (s *Session) NoteRecovered(gen uint64) {
	s.emit("daemon.recover", s.cache.Config().String(),
		slog.Uint64("generation", gen),
		slog.Bool("tuning", s.search != nil))
}

// Run streams src into the session until the stream ends, skipping the
// prefix a previous life already consumed. It exists for owners that do not
// need cancellation or persistence (Daemon.Run adds both).
func (s *Session) Run(src trace.Source) error {
	for skip := s.consumed; skip > 0; skip-- {
		if _, ok := src.Next(); !ok {
			return fmt.Errorf("daemon: stream ends at %d accesses but the checkpoint consumed %d", s.consumed-skip, s.consumed)
		}
	}
	for {
		a, ok := src.Next()
		if !ok {
			return nil
		}
		if _, err := s.Step(a.Addr, a.IsWrite()); err != nil {
			return err
		}
	}
}

// Close is a no-op kept for owners that release a Session like any other
// closer: a Session holds no goroutine, file or other resource, and its
// state (and Pending snapshot) stays readable.
func (s *Session) Close() {}

// Pending is the snapshot built at the most recent boundary (nil before the
// first boundary of a fresh session). Owners persist it; Session never does.
func (s *Session) Pending() *checkpoint.State { return s.pending }

// AtBoundary reports whether every consumed access is covered by the
// pending boundary snapshot — i.e. no partial measurement window is in
// flight. Graceful shutdown drains to a boundary before the final persist
// so the in-flight window is not lost.
func (s *Session) AtBoundary() bool {
	return s.consumed == 0 || (s.pending != nil && s.pending.Consumed == s.consumed)
}

// Recovered reports whether this session resumed from a checkpoint.
func (s *Session) Recovered() bool { return s.recovered }

// Consumed is the number of accesses taken from the stream.
func (s *Session) Consumed() uint64 { return s.consumed }

// Windows is the lifetime count of completed measurement windows.
func (s *Session) Windows() uint64 { return s.windows }

// Retunes counts tuning searches started after the first.
func (s *Session) Retunes() uint64 { return s.retunes }

// Tuning reports whether a search is currently running.
func (s *Session) Tuning() bool { return s.search != nil }

// Window is the configured accesses per measurement window.
func (s *Session) Window() uint64 { return s.opts.Window }

// Config is the cache's current configuration.
func (s *Session) Config() cache.Config { return s.cache.Config() }

// Settled is the outcome in force, nil while searching.
func (s *Session) Settled() *checkpoint.Outcome { return s.settled }

// LastResult returns the most recent completed search, whose examined
// configurations carry per-size miss measurements — the raw material for
// the fleet allocator's miss-ratio-curve profiles. ok is false until the
// first settle (and stays false after a watchdog abort, which completes no
// search).
func (s *Session) LastResult() (res tuner.SearchResult, ok bool) {
	return s.lastResult, s.hasResult
}

// Events returns the decision log so far (the newest MaxEvents entries;
// see EventsDropped for what the cap discarded).
func (s *Session) Events() []checkpoint.Event {
	return append([]checkpoint.Event(nil), s.events...)
}

// EventsDropped counts decision-log entries discarded by the MaxEvents cap
// over the session's lifetime (surviving kill/resume via the checkpoint).
func (s *Session) EventsDropped() uint64 { return s.eventsDropped }

// Stats exposes the cache's counters (for status reporting).
func (s *Session) Stats() cache.Stats { return s.cache.Stats() }
