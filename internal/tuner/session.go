package tuner

import (
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// This file makes an Online session snapshottable and resumable, the piece
// that lets a software tuner survive process death the way the paper's
// on-chip FSMD survives anything short of power loss. The key observation is
// that the heuristic is a pure function of its measurement sequence: the
// configurations it asks for, the sweeps it opens and closes, the incumbent
// it keeps — all of it is determined by the EvalResults it has been fed. So
// the exported state machine is simply that transcript (Online.history) plus
// the window geometry, and import is replay: feed the recorded measurements
// into a fresh step machine, which rebuilds its internal state exactly, then
// arm the live measurement window the machine requests next.
//
// Snapshots are only meaningful at window boundaries — mid-window the
// session's state includes half-measured counters that exist nowhere but in
// the live cache — so Snapshot refuses elsewhere. The companion cache.Image
// captures the cache contents at the same instant; together they make a
// kill+resume bit-identical to an uninterrupted run (the crash-equivalence
// property pinned by internal/experiments' chaos harness).

// SessionState is the complete externally held state of an Online session at
// a window boundary. It is plain data so internal/checkpoint can persist it.
type SessionState struct {
	// Window is the measurement interval the session was created with.
	Window uint64
	// Applied is the configuration applied to the cache at the boundary
	// (the one the next window will measure, or the settled choice).
	Applied cache.Config
	// History is the transcript: every window measurement fed to the
	// search so far, in order.
	History []EvalResult
	// SettleWB is the settle-writeback total accumulated so far.
	SettleWB uint64
	// Finished and Aborted record a session that is no longer searching.
	Finished bool
	Aborted  bool
	// MaxBytes is the capacity budget the search was constrained to, 0 when
	// unconstrained. Start is the warm re-search entry configuration (zero
	// value = the space's smallest configuration). Both are replayed on
	// resume so the restricted walk continues identically.
	MaxBytes int
	Start    cache.Config
}

// AtWindowBoundary reports whether the session is exactly between
// measurement windows (including before the first access, and any time
// after the search finished or was aborted) — the only states Snapshot can
// capture faithfully.
func (o *Online) AtWindowBoundary() bool {
	if o.finished || o.aborted {
		return true
	}
	return o.pending && o.count == 0 && o.warmupLeft == o.warmup
}

// Snapshot exports the session's state machine. It must be called at a
// window boundary: immediately after an Access that completed a measurement
// window (or before any access, or after settle/abort). Mid-window it
// returns an error instead of a state that could not be resumed faithfully.
//
// The caller persists the returned state together with the cache's
// cache.Image taken at the same instant; ResumeOnline rebuilds the session
// from the pair.
func (o *Online) Snapshot() (SessionState, error) {
	if !o.AtWindowBoundary() {
		return SessionState{}, fmt.Errorf("tuner: session snapshot requested mid-window (%d of %d accesses measured)", o.count, o.window)
	}
	return SessionState{
		Window:   o.window,
		Applied:  o.cache.Config(),
		History:  append([]EvalResult(nil), o.history...),
		SettleWB: o.settleWB,
		Finished: o.finished,
		Aborted:  o.aborted,
		MaxBytes: o.maxBytes,
		Start:    o.start,
	}, nil
}

// ResumeOnline rebuilds a tuning session from a SessionState exported by
// Snapshot. c must be the cache restored from the Image captured at the same
// boundary (its applied configuration is cross-checked). The recorded
// transcript is fed through a fresh step machine — rebuilding sweep
// position, candidate index and best-so-far energies exactly — with every
// request checked against the recorded configuration, and the live
// measurement loop takes over at the first window the transcript does not
// cover. A settled session's result is recomputed from its transcript, not
// stored, so it cannot drift from it.
//
// opts supplies the session's Meter, Rec and Session; Window, MaxBytes and
// Start come from st. Meter must be the same measurement seam the original
// session used for the continuation to be faithful. The replayed prefix of
// an unfinished session re-emits its "tuner.step" events with coordinates
// identical to the first life's — the determinism contract that lets a
// killed-and-resumed daemon's event log be deduplicated by
// (session, window, step) instead of diverging.
func ResumeOnline(c LiveCache, p *energy.Params, st SessionState, opts OnlineOptions) (*Online, error) {
	if st.Window == 0 {
		return nil, fmt.Errorf("tuner: resume: zero measurement window")
	}
	if c.Config() != st.Applied {
		return nil, fmt.Errorf("tuner: resume: cache is configured %v but the snapshot applied %v", c.Config(), st.Applied)
	}
	opts.Window, opts.MaxBytes, opts.Start = st.Window, st.MaxBytes, st.Start
	o := newOnline(c, p, opts)
	o.settleWB = st.SettleWB
	if st.Aborted {
		o.aborted = true
		o.history = append([]EvalResult(nil), st.History...)
		return o, nil
	}
	// A settled session replays silently; an unfinished one re-begins its
	// search span before the replay, at coordinates identical to the first
	// life's, so the re-emitted events are bit-identical and dedupe away.
	var trace func(SearchStep)
	if !st.Finished {
		o.beginSearchSpan()
		trace = o.traceStep
	}
	o.search = newSearch(PaperOrder, o.searchSpace(), trace)
	for i, r := range st.History {
		cfg, done := o.search.Next()
		if done {
			return nil, fmt.Errorf("tuner: resume transcript has %d windows but the search settles after %d", len(st.History), i)
		}
		if cfg != r.Cfg {
			return nil, fmt.Errorf("tuner: resume transcript diverged at window %d: recorded %v, search requests %v", i, r.Cfg, cfg)
		}
		o.history = append(o.history, r)
		o.search.Feed(r)
	}
	cfg, done := o.search.Next()
	switch {
	case st.Finished && !done:
		return nil, fmt.Errorf("tuner: resume: snapshot marked finished but its %d-window transcript does not settle the search", len(st.History))
	case st.Finished:
		res := o.search.Result()
		if res.Best.Cfg != st.Applied {
			return nil, fmt.Errorf("tuner: resume: settled snapshot applied %v but the transcript settles on %v", st.Applied, res.Best.Cfg)
		}
		o.finished = true
		o.result = res
		o.search = nil
	case done:
		return nil, fmt.Errorf("tuner: resume: snapshot marked mid-search but its %d-window transcript settles the search", len(st.History))
	case cfg != st.Applied:
		return nil, fmt.Errorf("tuner: resume: search requests %v next but the snapshot applied %v", cfg, st.Applied)
	default:
		// Re-applying the current configuration is a no-op
		// reconfiguration, so the resumed window starts from the restored
		// cache image with a fresh warmup — the state the original process
		// was in.
		o.arm(cfg)
	}
	return o, nil
}
