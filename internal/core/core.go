// Package core assembles the paper's complete self-tuning cache system: the
// configurable instruction and data caches, the energy model, and the
// on-chip tuner, wired into the tuning approaches §1 lists — tune once at
// task startup, at fixed periods, or whenever a phase change is detected.
// It is the public face the examples and command-line tools build on.
package core

import (
	"fmt"
	"log/slog"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// Mode selects when the system re-runs the tuning heuristic (paper §1:
// "during the startup of a task, whenever a program phase change is
// detected, or at fixed time periods").
type Mode int

const (
	// TuneOnce tunes at startup and keeps the result.
	TuneOnce Mode = iota
	// TunePeriodic re-tunes every Period accesses.
	TunePeriodic
	// TuneOnPhaseChange re-tunes when the windowed miss rate drifts more
	// than PhaseThreshold from the rate observed when last tuned.
	TuneOnPhaseChange
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case TuneOnce:
		return "once"
	case TunePeriodic:
		return "periodic"
	case TuneOnPhaseChange:
		return "phase"
	default:
		return "?"
	}
}

// Options configures a System.
type Options struct {
	// Params is the energy model; nil uses DefaultParams.
	Params *energy.Params
	// Window is the per-configuration measurement interval in accesses
	// (per cache). Default 10000.
	Window uint64
	// Mode selects the tuning approach. Default TuneOnce.
	Mode Mode
	// Period is the re-tune interval for TunePeriodic (accesses per
	// cache). Default 20x Window.
	Period uint64
	// PhaseThreshold is the absolute miss-rate drift that triggers a
	// re-tune in TuneOnPhaseChange. Default 0.02.
	PhaseThreshold float64
	// VictimEntries, when positive, attaches a fully-associative victim
	// buffer of that many 16 B entries to each cache (the companion
	// victim-buffer study).
	VictimEntries int
	// Rec receives each tuning session's telemetry, stamped with which
	// cache ("I" or "D") it belongs to. nil records nothing; recording
	// never changes a tuning decision.
	Rec obs.Recorder
}

func (o *Options) fill() {
	if o.Params == nil {
		o.Params = energy.DefaultParams()
	}
	if o.Window == 0 {
		o.Window = 10_000
	}
	if o.Period == 0 {
		o.Period = 20 * o.Window
	}
	if o.PhaseThreshold == 0 {
		o.PhaseThreshold = 0.02
	}
}

// Event records one completed tuning session on one cache.
type Event struct {
	// Cache is "I" or "D".
	Cache string
	// At is the access count (per cache) when the session completed.
	At uint64
	// Chosen is the selected configuration.
	Chosen cache.Config
	// Examined is the number of configurations measured.
	Examined int
	// SettleWritebacks counts dirty lines written back by shrinking
	// transitions during the session.
	SettleWritebacks uint64
	// TunerEnergy is the Equation 2 hardware energy of the session.
	TunerEnergy float64
}

// side is the per-cache half of the system.
type side struct {
	name    string
	cache   *cache.Configurable
	session *tuner.Online
	opts    *Options
	rec     obs.Recorder // stamped with this side's cache name
	started uint64       // sessions started; the next session's ordinal

	accesses   uint64
	cumulative cache.Stats
	events     []Event

	// Phase detection state.
	windowAccesses, windowMisses uint64
	lastTunedMissRate            float64
	nextPeriodic                 uint64
}

// System is the self-tuning two-cache memory system.
type System struct {
	opts Options
	hw   *tuner.HardwareModel
	fsmd *tuner.FSMD
	i, d side
}

// New builds a system with both caches at the heuristic's starting
// configuration and a tuning session already armed.
func New(opts Options) *System {
	opts.fill()
	s := &System{opts: opts, hw: tuner.NewHardwareModel(), fsmd: tuner.NewFSMD(opts.Params)}
	s.i = side{name: "I", cache: cache.MustConfigurable(cache.MinConfig()), opts: &s.opts,
		rec: obs.With(obs.OrNop(opts.Rec), slog.String("cache", "I"))}
	s.d = side{name: "D", cache: cache.MustConfigurable(cache.MinConfig()), opts: &s.opts,
		rec: obs.With(obs.OrNop(opts.Rec), slog.String("cache", "D"))}
	if opts.VictimEntries > 0 {
		s.i.cache.Victim = cache.NewVictimBuffer(opts.VictimEntries)
		s.d.cache.Victim = cache.NewVictimBuffer(opts.VictimEntries)
	}
	s.i.startSession(opts.Params, opts.Window)
	s.d.startSession(opts.Params, opts.Window)
	return s
}

func (c *side) startSession(p *energy.Params, window uint64) {
	c.session = tuner.NewOnline(c.cache, p, tuner.OnlineOptions{Window: window, Rec: c.rec, Session: c.started})
	c.started++
	c.nextPeriodic = c.accesses + c.opts.Period
}

// Access routes one reference through the system and returns the cache's
// per-access result (hit/miss, probe count, extra latency), which a coupled
// CPU model uses for stall accounting.
func (s *System) Access(a trace.Access) cache.AccessResult {
	if a.Kind == trace.InstFetch {
		return s.i.access(s, a.Addr, false)
	}
	return s.d.access(s, a.Addr, a.IsWrite())
}

func (c *side) access(s *System, addr uint32, write bool) cache.AccessResult {
	c.accesses++
	cfg := c.cache.Config()
	var r cache.AccessResult
	if c.session != nil {
		r = c.session.Access(addr, write)
		if c.session.Done() {
			c.finishSession(s)
		}
	} else {
		r = c.cache.Access(addr, write)
	}
	c.accumulate(cfg, r, write)
	c.observe(s, r)
	return r
}

// accumulate maintains whole-run counters independent of the tuner's
// per-window resets.
func (c *side) accumulate(cfg cache.Config, r cache.AccessResult, write bool) {
	st := &c.cumulative
	st.Accesses++
	if write {
		st.Writes++
	}
	if r.Hit {
		st.Hits++
	} else {
		st.Misses++
	}
	st.Writebacks += uint64(r.Writebacks)
	st.SublinesFilled += uint64(r.SublinesFilled)
	st.ExtraCycles += uint64(r.ExtraLatency)
	if !r.Hit && c.cache.Victim != nil {
		st.VictimProbes++
		if r.VictimHit {
			st.VictimHits++
		}
	}
	if cfg.WayPredict && cfg.Ways > 1 {
		if r.PredFirstProbeHit {
			st.PredHits++
		} else {
			st.PredMisses++
		}
	}
}

func (c *side) finishSession(s *System) {
	res := c.session.Result()
	e := Event{
		Cache:            c.name,
		At:               c.accesses,
		Chosen:           res.Best.Cfg,
		Examined:         res.NumExamined(),
		SettleWritebacks: c.session.SettleWritebacks(),
		TunerEnergy:      s.hw.SearchEnergy(s.opts.Params, s.fsmd.EvaluationCycles(), res.NumExamined()),
	}
	c.events = append(c.events, e)
	c.session = nil
	c.lastTunedMissRate = -1 // re-baseline on the next full window
	c.windowAccesses, c.windowMisses = 0, 0
}

// observe drives the periodic and phase-change re-tuning policies.
func (c *side) observe(s *System, r cache.AccessResult) {
	if c.session != nil {
		return
	}
	switch s.opts.Mode {
	case TuneOnce:
		return
	case TunePeriodic:
		if c.accesses >= c.nextPeriodic {
			c.startSession(s.opts.Params, s.opts.Window)
		}
	case TuneOnPhaseChange:
		c.windowAccesses++
		if !r.Hit {
			c.windowMisses++
		}
		if c.windowAccesses < s.opts.Window {
			return
		}
		mr := float64(c.windowMisses) / float64(c.windowAccesses)
		c.windowAccesses, c.windowMisses = 0, 0
		if c.lastTunedMissRate < 0 {
			c.lastTunedMissRate = mr
			return
		}
		drift := mr - c.lastTunedMissRate
		if drift < 0 {
			drift = -drift
		}
		if drift > s.opts.PhaseThreshold {
			c.startSession(s.opts.Params, s.opts.Window)
		}
	}
}

// Run replays a stream.
func (s *System) Run(accs []trace.Access) {
	for _, a := range accs {
		s.Access(a)
	}
}

// IConfig and DConfig return the caches' current configurations.
func (s *System) IConfig() cache.Config { return s.i.cache.Config() }

// DConfig returns the data cache's current configuration.
func (s *System) DConfig() cache.Config { return s.d.cache.Config() }

// Tuning reports whether either cache is mid-search.
func (s *System) Tuning() bool { return s.i.session != nil || s.d.session != nil }

// Events returns all completed tuning sessions in completion order.
func (s *System) Events() []Event {
	out := append([]Event(nil), s.i.events...)
	out = append(out, s.d.events...)
	return out
}

// Report summarises whole-run energy per cache under the configurations
// currently selected.
type Report struct {
	IStats, DStats cache.Stats
	IBreak, DBreak energy.Breakdown
	TunerEnergy    float64
}

// Report computes the run summary.
func (s *System) Report() Report {
	var r Report
	r.IStats, r.DStats = s.i.cumulative, s.d.cumulative
	r.IBreak = s.opts.Params.Evaluate(s.i.cache.Config(), r.IStats)
	r.DBreak = s.opts.Params.Evaluate(s.d.cache.Config(), r.DStats)
	for _, e := range s.Events() {
		r.TunerEnergy += e.TunerEnergy
	}
	return r
}

// String summarises system state.
func (s *System) String() string {
	return fmt.Sprintf("selftune system: I$=%v D$=%v mode=%v tuning=%v",
		s.IConfig(), s.DConfig(), s.opts.Mode, s.Tuning())
}
