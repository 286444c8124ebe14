package tuner

import (
	"log/slog"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// LiveCache is the running cache a session tunes: served an access at a
// time (cache.Simulator) or a block at a time (ReplayBatch), and
// reconfigured in place between windows. The reference cache.Configurable
// and the fast fastsim.Kernel (built by NewLive or Restore) both satisfy it;
// a session behaves bit-identically on either.
type LiveCache interface {
	cache.Simulator
	// Config is the applied configuration.
	Config() cache.Config
	// Reconfigure applies cfg without flushing, shrinking transitions
	// permitted (way shutdown writes back the deactivated dirty lines).
	Reconfigure(cfg cache.Config) error
	// ReplayBatch performs a block of accesses.
	ReplayBatch(accs []trace.Access)
}

// Online drives a live configurable cache through the heuristic without
// ever flushing it, the way the on-chip tuner hardware does: each candidate
// configuration is applied to the running cache and measured over the next
// window of accesses. Because the heuristic's sweeps only grow size, line
// size and associativity, every reconfiguration is flush-free (§3.3); the
// final settle to the chosen configuration is the only transition that may
// shrink, and its writeback cost is recorded.
//
// Online is a plain value: the search is a step machine that Access advances
// inline whenever a window completes, so a session owns no goroutine and an
// abandoned one needs no teardown.
type Online struct {
	cache  LiveCache
	params *energy.Params
	window uint64
	warmup uint64
	meter  Meter

	search *search // nil once finished or aborted

	pending    bool
	count      uint64
	warmupLeft uint64
	finished   bool
	aborted    bool
	result     SearchResult
	settleWB   uint64

	// rec and sessionID are the telemetry seam: every heuristic step is
	// recorded as one event keyed (session, window, step, config).
	rec       obs.Recorder
	sessionID uint64

	// history records every window measurement fed to the search, in
	// order — the externally visible transcript of the search's state
	// machine and the window coordinate its events carry. Because the
	// heuristic is a deterministic function of its measurement sequence,
	// replaying history reconstructs the search exactly; Snapshot and
	// ResumeOnline (session.go) build on this.
	history []EvalResult

	// maxBytes and start define the constrained space the session searches:
	// maxBytes caps the footprint (0 = unconstrained) and start is the warm
	// re-search entry point (zero value = the space's smallest
	// configuration). Both are part of the snapshot so a resumed session
	// replays the identical restricted walk.
	maxBytes int
	start    cache.Config

	// searchSpan is the deterministic "tuner.search" begin/end pair wrapping
	// the whole search: begun at construction (window 0, step 0 of this
	// session ordinal), ended at settle with the work-unit duration
	// (configurations examined). A resumed session re-begins the span at the
	// identical coordinates, so kill/resume re-emits bit-identical span
	// events and coordinate deduplication reconstructs one span.
	searchSpan obs.Span
}

// Meter transforms a window's raw counters before they are priced — the
// seam through which counter-readout faults (internal/faults.Measurement
// semantics) reach the online tuner, and where real hardware would clip its
// counter widths. nil is a perfect readout.
type Meter func(cfg cache.Config, st cache.Stats) cache.Stats

// OnlineOptions configures a tuning session. Only Window is required.
type OnlineOptions struct {
	// Window is the number of accesses each configuration is measured over
	// (the hardware's measurement interval).
	Window uint64
	// Meter is the counter-readout seam (nil = perfect readout). Implausible
	// window readings (by Plausible) are re-measured over the next window;
	// if the second window is implausible too the session abandons tuning
	// and settles the cache on SafeConfig, with Result marked Degraded.
	// Accesses keep being served normally throughout — a broken counter
	// never takes the cache down.
	Meter Meter
	// Rec records every heuristic step as a "tuner.step" event carrying
	// Session, the measurement-window ordinal, the step ordinal and the
	// configuration — the search trajectory as data. Recording is strictly
	// observational; a nil recorder behaves bit-identically.
	Rec     obs.Recorder
	Session uint64
	// MaxBytes restricts the search to configurations of at most this many
	// bytes (0 = unconstrained, see Space.Constrain). Start, when non-zero,
	// is where the walk begins instead of the smallest configuration — the
	// warm re-search a fleet reallocation triggers; it is clamped into the
	// budget (ClampToBudget) and applied before the first window.
	MaxBytes int
	Start    cache.Config
}

// NewOnline starts a tuning session on c.
func NewOnline(c LiveCache, p *energy.Params, opts OnlineOptions) *Online {
	o := newOnline(c, p, opts)
	o.beginSearchSpan()
	o.search = newSearch(PaperOrder, o.searchSpace(), o.traceStep)
	o.advance()
	return o
}

// newOnline builds a session with no search attached.
func newOnline(c LiveCache, p *energy.Params, opts OnlineOptions) *Online {
	return &Online{
		cache:     c,
		params:    p,
		window:    opts.Window,
		meter:     opts.Meter,
		rec:       obs.OrNop(opts.Rec),
		sessionID: opts.Session,
		// A quarter-window warmup after each reconfiguration keeps the
		// transition transient (blocks stranded by the remapping
		// re-missing once) out of the measurement, which would
		// otherwise bias the sweep against growth steps.
		warmup:   opts.Window / 4,
		maxBytes: opts.MaxBytes,
		start:    opts.Start,
	}
}

// beginSearchSpan opens the session's "tuner.search" span. It must run
// before the search emits its first "tuner.step" (i.e. before the first
// window of a fresh session, and before the transcript replay of a resumed
// one) so the begin event always precedes the steps it encloses.
func (o *Online) beginSearchSpan() {
	o.searchSpan = obs.BeginSpan(o.rec, nil, obs.Event{
		Name:    "tuner.search",
		Session: o.sessionID,
		Fields:  []slog.Attr{slog.Int("budget_bytes", o.maxBytes)},
	})
}

// searchSpace is the (possibly budget-restricted, possibly warm-started)
// space this session's heuristic walks.
func (o *Online) searchSpace() Space {
	sp := DefaultSpace().Constrain(o.maxBytes)
	if o.start != (cache.Config{}) {
		sp.Start = ClampToBudget(o.start, o.maxBytes, DefaultSpace())
	}
	return sp
}

// MaxBytes is the session's capacity budget, 0 when unconstrained.
func (o *Online) MaxBytes() int { return o.maxBytes }

// traceStep records one heuristic decision. The search calls it from Feed,
// after the window that produced the reading was appended to history.
func (o *Online) traceStep(st SearchStep) {
	if !o.rec.Enabled() {
		return
	}
	o.rec.Record(obs.Event{
		Name:    "tuner.step",
		Session: o.sessionID,
		Window:  uint64(len(o.history)) - 1, // the window that produced this reading
		Step:    uint64(st.Step),
		Config:  st.Cfg.String(),
		Fields: []slog.Attr{
			slog.String("phase", st.Phase.String()),
			slog.Float64("energy", st.Energy),
			slog.Bool("improved", st.Improved),
			slog.Bool("stop", st.Stop),
			slog.Bool("remeasured", st.Remeasured),
		},
	})
}

// advance applies the search's next requested configuration and opens its
// measurement window, or settles the session.
func (o *Online) advance() {
	cfg, done := o.search.Next()
	if done {
		o.finish(o.search.Result())
		return
	}
	o.arm(cfg)
}

// arm applies cfg and opens a measurement window over it, warmup first.
func (o *Online) arm(cfg cache.Config) {
	o.apply(cfg)
	o.cache.ResetStats()
	o.count = 0
	o.warmupLeft = o.warmup
	o.pending = true
}

func (o *Online) finish(res SearchResult) {
	o.result = res
	o.finished = true
	o.search = nil
	o.apply(res.Best.Cfg)
	windows := uint64(len(o.history))
	// Close the search span first: its end (work units, not wall-clock)
	// precedes the settle decision it explains.
	o.searchSpan.End(
		slog.Uint64("work", uint64(res.NumExamined())),
		slog.String("unit", "configs"),
		slog.Uint64("windows", windows))
	if o.rec.Enabled() {
		fields := []slog.Attr{
			slog.Float64("energy", res.Best.Energy),
			slog.Int("examined", res.NumExamined()),
			slog.Bool("degraded", res.Degraded),
			slog.Uint64("settle_writebacks", o.settleWB),
		}
		if res.Fault != nil {
			fields = append(fields, slog.String("fault", res.Fault.Error()))
		}
		o.rec.Record(obs.Event{
			Name:    "tuner.settle",
			Session: o.sessionID,
			Window:  windows,
			Step:    uint64(res.NumExamined()),
			Config:  res.Best.Cfg.String(),
			Fields:  fields,
		})
	}
}

// apply reconfigures the live cache. Most transitions are flush-free
// growth; retreating from a rejected larger size to the sweep's best (and
// the final settle) shrinks, which way shutdown pays for by writing back
// only the dirty lines of the deactivated banks — never a full flush.
func (o *Online) apply(cfg cache.Config) {
	before := o.cache.Stats().SettleWritebacks
	if err := o.cache.Reconfigure(cfg); err != nil {
		panic("tuner: online transition rejected: " + err.Error())
	}
	o.settleWB += o.cache.Stats().SettleWritebacks - before
}

// Abort ends an unfinished session: the cache keeps its current
// configuration, and subsequent Access calls behave as a plain cache.
// Harmless after completion and when repeated.
func (o *Online) Abort() {
	if o.finished || o.aborted {
		return
	}
	o.aborted = true
	o.pending = false
	o.search = nil
}

// Aborted reports whether the session was cancelled.
func (o *Online) Aborted() bool { return o.aborted }

// CompletedWindows is the number of measurement windows fed to the search so
// far (each examined configuration costs one window; re-measures after an
// implausible reading cost one more).
func (o *Online) CompletedWindows() uint64 { return uint64(len(o.history)) }

// SettleWritebacks returns the dirty lines written back by shrinking
// transitions over the whole session (zero for instruction caches; small
// for data caches — compare FlushAblation for the largest-first ordering).
func (o *Online) SettleWritebacks() uint64 { return o.settleWB }

// Access feeds one reference through the cache and advances the tuning
// session when the window completes.
func (o *Online) Access(addr uint32, write bool) cache.AccessResult {
	r := o.cache.Access(addr, write)
	o.account(1)
	return r
}

// Replay feeds a block of references through the cache in one ReplayBatch
// and returns how many it consumed: all of accs, or fewer when the block
// reaches the end of the current warmup or measurement window, where it
// stops so the window closes (and the next configuration is applied) at
// exactly the access Access would close it at. Callers loop until accs is
// consumed.
func (o *Online) Replay(accs []trace.Access) int {
	n := len(accs)
	if room := o.room(); uint64(n) > room {
		n = int(room)
	}
	o.cache.ReplayBatch(accs[:n])
	o.account(uint64(n))
	return n
}

// room is how many accesses fit before the next warmup or window end: at
// least one, and unbounded once the session stopped searching.
func (o *Online) room() uint64 {
	switch {
	case !o.pending:
		return ^uint64(0)
	case o.warmupLeft > 0:
		return o.warmupLeft
	case o.count < o.window:
		return o.window - o.count
	}
	return 1
}

// account advances the window bookkeeping over n just-served accesses (n is
// at most room()): the warmup countdown, then the measured count, then —
// when the window completes — pricing the reading, feeding the search and
// applying its next configuration.
func (o *Online) account(n uint64) {
	if !o.pending {
		return
	}
	if o.warmupLeft > 0 {
		o.warmupLeft -= n
		if o.warmupLeft == 0 {
			o.cache.ResetStats()
		}
		return
	}
	o.count += n
	if o.count < o.window {
		return
	}
	o.pending = false
	cfg := o.cache.Config()
	st := o.cache.Stats()
	if o.meter != nil {
		st = o.meter(cfg, st)
	}
	b := o.params.Evaluate(cfg, st)
	r := EvalResult{Cfg: cfg, Energy: b.Total(), Breakdown: b, Stats: st}
	o.history = append(o.history, r)
	o.search.Feed(r)
	o.advance()
}

// Done reports whether the search has settled.
func (o *Online) Done() bool { return o.finished }

// Degraded reports that the session abandoned tuning after persistently
// implausible window readings and settled on SafeConfig instead.
func (o *Online) Degraded() bool { return o.finished && o.result.Degraded }

// Result returns the completed search (zero until Done).
func (o *Online) Result() SearchResult { return o.result }

// Cache returns the cache under tuning.
func (o *Online) Cache() LiveCache { return o.cache }
