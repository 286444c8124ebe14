package daemon

import (
	"sync"

	"selftune/internal/obs"
)

// SessionHists bundles the wall-clock latency histograms a session's owner
// observes. Wall-clock durations live only here (on the /metrics surface):
// the determinism contract keeps them out of event logs and checkpoints, so
// two runs of the same stream emit bit-identical events while their
// histograms are free to differ. A nil *SessionHists (or nil field) records
// nothing.
type SessionHists struct {
	// Search is the duration of one whole tuning search, begin to settle
	// (or watchdog abort) — the wall-clock twin of the "tuner.search" span.
	Search *obs.Histogram
	// Persist is one checkpoint save: encode, fsync, rename, dir sync.
	Persist *obs.Histogram
	// Drain is a shutdown drain from cancellation to the next boundary.
	Drain *obs.Histogram
}

// NewSessionHists registers (and describes) the daemon's latency families on
// reg. Histograms are process-wide families: a fleet shares one set across
// all its sessions, which is what capacity planning wants to see.
func NewSessionHists(reg *obs.Registry) *SessionHists {
	reg.Describe("daemon_search_seconds", "Wall-clock duration of one tuning search, begin to settle or watchdog abort.")
	reg.Describe("daemon_persist_seconds", "Wall-clock duration of one checkpoint persist (encode, fsync, rename).")
	reg.Describe("daemon_drain_seconds", "Wall-clock duration of a shutdown drain to the next window boundary.")
	return &SessionHists{
		Search:  reg.Histogram("daemon_search_seconds"),
		Persist: reg.Histogram("daemon_persist_seconds"),
		Drain:   reg.Histogram("daemon_drain_seconds"),
	}
}

// search/persist/drain are nil-safe accessors so call sites never chain
// nil-checks (obs.Histogram methods are themselves nil-receiver safe).
func (h *SessionHists) search() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.Search
}

func (h *SessionHists) persist() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.Persist
}

func (h *SessionHists) drain() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.Drain
}

// Status is one daemon's /statusz snapshot: everything an operator asks
// first, readable by script and human alike. It is rebuilt at every window
// boundary (alongside the gauges), so a scrape observes the most recent
// boundary's coherent view rather than racing the stream loop.
type Status struct {
	Consumed      uint64  `json:"consumed_accesses"`
	Windows       uint64  `json:"windows"`
	Retunes       uint64  `json:"retunes"`
	Checkpoints   uint64  `json:"checkpoints"`
	Tuning        bool    `json:"tuning"`
	Config        string  `json:"config"`
	BudgetBytes   int     `json:"budget_bytes,omitempty"`
	Baselined     bool    `json:"baselined"`
	BaselineMiss  float64 `json:"baseline_miss_rate,omitempty"`
	Degraded      bool    `json:"degraded,omitempty"`
	EventsDropped uint64  `json:"events_dropped,omitempty"`
	Recovered     bool    `json:"recovered,omitempty"`
	// Kernel is the cache implementation serving the stream; Build
	// identifies the binary.
	Kernel string    `json:"kernel"`
	Build  obs.Build `json:"build"`
}

// ServingKernel names the cache implementation every Session serves
// through, as /statusz reports it.
const ServingKernel = "fastsim.Kernel"

// statusCell is the mutex-guarded snapshot the HTTP handler reads; the
// daemon's single-threaded loop writes it at boundaries.
type statusCell struct {
	mu sync.Mutex
	st Status
}

func (c *statusCell) set(st Status) {
	c.mu.Lock()
	c.st = st
	c.mu.Unlock()
}

func (c *statusCell) get() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// snapshotStatus rebuilds the daemon's Status from the session. Called from
// the stream-loop goroutine only (via gauges()).
func (d *Daemon) snapshotStatus() {
	s := d.sess
	st := Status{
		Consumed:      s.consumed,
		Windows:       s.windows,
		Retunes:       s.retunes,
		Checkpoints:   d.checkpoints,
		Tuning:        s.search != nil,
		Config:        s.cache.Config().String(),
		BudgetBytes:   s.budget,
		Baselined:     s.baselined,
		BaselineMiss:  s.baseline,
		EventsDropped: s.eventsDropped,
		Recovered:     s.recovered,
		Kernel:        ServingKernel,
		Build:         obs.ReadBuild(),
	}
	if s.settled != nil {
		st.Degraded = s.settled.Degraded
	}
	d.status.set(st)
}

// Statusz returns the most recent boundary's status snapshot. Safe to call
// from any goroutine (the /statusz handler's contract).
func (d *Daemon) Statusz() Status { return d.status.get() }
