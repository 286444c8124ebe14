// Package fleet runs many self-tuning cache sessions in one process: a
// session manager that shards streams across a fixed set of worker
// goroutines, a streaming ingest protocol reusing the trace codec as wire
// format, and a global capacity allocator that partitions a shared budget
// across tenants by their measured miss-ratio curves.
//
// The house invariant is per-session determinism: each session is a
// daemon.Daemon bound to its own namespaced checkpoint store and an
// sid-stamped recorder, fed its accesses in arrival order by exactly one
// shard worker. A fleet of N sessions therefore produces per-session
// decisions, checkpoints and telemetry bit-identical to N independent
// local-mode stcd runs, at any shard count — internal/fleet's property test
// pins it. Fleet-wide events (open, close, allocation) carry no sid field,
// and the fleet events that concern exactly one session (shed, park, admit,
// reject, realloc) are stamped with it, so filtering a fleet log by sid
// yields exactly one session's story.
//
// Backpressure is per session: Submit blocks while a session's in-flight
// accesses exceed QueueDepth, so one slow tenant cannot balloon memory.
// Shed mode trades that blocking for load-shedding — newest batches are
// dropped and counted — which sacrifices the determinism guarantee and is
// therefore off by default.
package fleet

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/fleet/allocator"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// Options configures a Manager.
type Options struct {
	// Shards is the number of worker goroutines sessions are distributed
	// over (deterministically, by session-ID hash). Default 4.
	Shards int
	// QueueDepth is the per-session bound on in-flight (submitted but not
	// yet consumed) accesses. Default 65536.
	QueueDepth int
	// Shed, when true, drops a submitted batch instead of blocking when a
	// session's queue is full; drops are counted per session. Shedding
	// breaks the bit-identical-to-solo guarantee for sessions that shed.
	Shed bool
	// Session is the per-session daemon configuration template. Its Dir,
	// Keep and Reg fields are managed by the fleet (Dir is namespaced per
	// session under Options.Dir; gauges are fleet-labelled); Rec is
	// replaced by the fleet recorder stamped with the session ID.
	Session daemon.Options
	// Dir is the fleet checkpoint root ("" disables persistence): one
	// store per session under sessions/, see checkpoint.FleetStore.
	Dir string
	// Keep is checkpoint generations retained per session. Default 4.
	Keep int
	// Rec receives fleet telemetry and, stamped with an "sid" field, each
	// session's events. nil records nothing.
	Rec obs.Recorder
	// Reg, when non-nil, receives fleet gauges: session-labelled progress
	// series plus fleet totals.
	Reg *obs.Registry

	// AllocBudgetBytes enables the capacity allocator: a shared budget
	// partitioned across sessions by expected miss savings. 0 disables.
	AllocBudgetBytes int
	// AllocUnit is the allocation granularity in bytes. Default 2048 (the
	// configurable cache's bank size).
	AllocUnit int
	// AllocEvery re-runs the allocation after this many new session
	// profiles (settled searches). Default 1.
	AllocEvery int
	// AllocDP selects the exact grouped-knapsack solver over the greedy
	// marginal-gain one.
	AllocDP bool

	// EnforceBudget makes the capacity plan binding instead of advisory:
	// every session's search is constrained to its assignment
	// (daemon.SetBudget → tuner.Space.Constrain), assignments are
	// recomputed on session open, close and profile refresh, and Open is
	// subject to admission control — a session the budget cannot give the
	// minimum footprint is parked in the bounded pending queue or rejected
	// with *AdmissionError. Requires AllocBudgetBytes > 0. Off by default.
	EnforceBudget bool
	// Assignments pins per-session budgets in bytes (EnforceBudget only):
	// a pinned session's constraint is fixed at open time and never
	// reallocated, which keeps the session's decision sequence independent
	// of fleet composition — the budget-constrained determinism property
	// test runs on pinned assignments. Unlisted sessions are planned
	// dynamically.
	Assignments map[string]int
	// PendingQueue bounds the admission queue (EnforceBudget only):
	// sessions that do not fit the budget park here, FIFO, until capacity
	// frees; opens beyond the bound are rejected. Default 4; negative
	// disables parking so every over-budget open rejects immediately.
	PendingQueue int

	// ReadTimeout is the ingest idle deadline: a connection whose next
	// frame byte does not arrive within this window is closed (its open
	// sessions get their graceful final persist; other connections are
	// untouched). Requires the reader to support SetReadDeadline
	// (net.Conn does). 0 — the default — disables the deadline, which
	// deterministic in-process tests rely on.
	ReadTimeout time.Duration

	// MaxRevives caps in-process revivals per session: a quarantined
	// session that has already revived this many times goes to Failed
	// instead of quarantining again. Default 3; negative disables revival
	// entirely, so every failure is terminal.
	MaxRevives int
	// Configure, when non-nil, adjusts one session's daemon options after
	// the fleet fills the template, at open and at every revival — the
	// fault-injection seam for the chaos harness and a per-tenant tuning
	// knob. Dir, Keep, Reg and Rec stay fleet-managed regardless.
	Configure func(id string, o *daemon.Options)
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 65536
	}
	if o.Keep == 0 {
		o.Keep = 4
	}
	if o.AllocUnit <= 0 {
		o.AllocUnit = 2048
	}
	if o.AllocEvery <= 0 {
		o.AllocEvery = 1
	}
	if o.PendingQueue == 0 {
		o.PendingQueue = 4
	}
	if o.MaxRevives == 0 {
		o.MaxRevives = 3
	}
}

// AdmissionError reports an Open turned away by admission control: the
// budget cannot give every admitted session the minimum cache footprint and
// the pending queue is full (or parking is disabled). It is a client-visible
// typed error — the wire layer forwards Reason to the submitting client.
type AdmissionError struct {
	// SID is the session that was refused.
	SID string
	// Reason is the human-readable refusal.
	Reason string
	// Sessions is the number of live sessions at decision time.
	Sessions int
	// BudgetBytes echoes the fleet budget the decision was made against.
	BudgetBytes int
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("fleet: session %q not admitted: %s (%d live sessions, %d B budget)",
		e.SID, e.Reason, e.Sessions, e.BudgetBytes)
}

// Manager is the fleet: sessions sharded across workers, with shared
// persistence, telemetry and the capacity allocator.
type Manager struct {
	opts  Options
	rec   obs.Recorder
	store *checkpoint.FleetStore // nil when persistence is disabled
	hists *fleetHists            // nil when Reg is nil; wall-clock latency only

	shards []*shard

	// minBytes is the smallest footprint any session can occupy — the
	// admission-control unit (enforce mode).
	minBytes int

	mu          sync.Mutex
	sessions    map[string]*session
	pending     []*session // parked sessions, FIFO admission order (enforce mode)
	closed      bool
	seq         uint64 // fleet-event ordinal (Step coordinate)
	rejected    uint64 // opens refused by admission control
	unparked    uint64 // sessions admitted from the pending queue
	failed      int    // live sessions in Failed state (free their admission slot)
	quarantined int    // live sessions in Quarantined state (keep their slot)
	panics      uint64 // worker panics contained so far
	reports     []SessionReport

	// restored carries the assignments a previous life persisted
	// (checkpoint.FleetState), consumed as each session re-opens so its
	// first search starts under the same constraint the old life settled
	// with — no realloc flip-flop on recovery.
	restored map[string]int

	allocMu       sync.Mutex
	profiles      map[string]allocator.Profile
	settles       int // profiles refreshed since the last allocation
	plan          *allocator.Plan
	allocOrdinals uint64
}

// session is one tenant: a daemon pinned to one shard worker.
type session struct {
	id    string
	shard *shard
	sopts daemon.Options // the daemon configuration revival rebuilds from

	mu       sync.Mutex
	cond     *sync.Cond
	d        *daemon.Daemon // swapped by revival; snapshot under mu before use
	inFlight int            // submitted accesses the worker has not consumed yet
	skip     uint64         // resumed sessions: accesses of the re-streamed prefix left to discard
	shed     uint64
	closed   bool

	// The health state machine (see Health). cause is the failure that
	// left Active; backoff is the submissions still to discard before
	// revival; epoch increments at every revival so batches enqueued
	// against a dead daemon are discarded instead of corrupting the
	// revived one's stream position.
	health  Health
	cause   error
	revives int
	backoff int
	epoch   uint64

	// parked marks a session waiting in the admission queue: submitted
	// batches buffer in buf (with the normal inFlight backpressure) and
	// flush to the shard, in order, when the session is admitted.
	parked bool
	buf    []trace.Access

	// budget is the capacity assignment in force; budgetDirty flags a
	// reallocation the shard worker applies (daemon.SetBudget) at the next
	// batch start, the only point serialised with Step.
	budget      int
	budgetDirty bool

	profiledAt uint64 // Outcome.At of the settle the current profile reflects
}

// item is one unit of shard-worker work.
type item struct {
	s     *session
	accs  []trace.Access
	epoch uint64 // session epoch at enqueue; stale data items are discarded
	close bool
	done  chan error // close items only
	// pool, when non-nil, takes batch (accs before the resume skip
	// trimmed it) back once the worker is done with it.
	pool  *batchPool
	batch []trace.Access
	// enq is the wall-clock enqueue instant, feeding only the queue-wait
	// histogram — never an event or a decision (the determinism contract).
	enq time.Time
}

// shard is one worker goroutine and its FIFO queue.
type shard struct {
	id     int
	mu     sync.Mutex
	cond   *sync.Cond
	q      []item
	served uint64 // items dequeued by the worker so far (/statusz)
	stop   bool
	kill   bool // abandon queued work immediately (Manager.Kill)
	wg     sync.WaitGroup
}

// shardOf deterministically assigns a session ID to one of n shards
// (FNV-1a), so a restarted fleet reproduces the same placement.
func shardOf(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// New builds a fleet manager and starts its shard workers.
func New(opts Options) (*Manager, error) {
	opts.fill()
	if opts.EnforceBudget && opts.AllocBudgetBytes <= 0 {
		return nil, fmt.Errorf("fleet: EnforceBudget requires a positive AllocBudgetBytes")
	}
	m := &Manager{
		opts:     opts,
		rec:      obs.OrNop(opts.Rec),
		sessions: map[string]*session{},
		profiles: map[string]allocator.Profile{},
		restored: map[string]int{},
		minBytes: tuner.DefaultSpace().MinFootprintBytes(),
	}
	if opts.Reg != nil {
		m.hists = newFleetHists(opts.Reg)
	}
	if opts.Dir != "" {
		fs, err := checkpoint.OpenFleetStore(opts.Dir, opts.Keep)
		if err != nil {
			return nil, err
		}
		m.store = fs
		if opts.EnforceBudget {
			st, err := fs.LoadState()
			if err != nil {
				return nil, err
			}
			if st != nil {
				for id, b := range st.Assignments {
					m.restored[id] = b
				}
				for _, p := range st.Profiles {
					prof := allocator.Profile{ID: p.ID, Weight: p.Weight}
					for _, pt := range p.Points {
						prof.Points = append(prof.Points, allocator.Point{Bytes: pt.Bytes, MissRate: pt.MissRate})
					}
					m.profiles[prof.ID] = prof
				}
			}
		}
	}
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{id: i}
		sh.cond = sync.NewCond(&sh.mu)
		sh.wg.Add(1)
		go m.work(sh)
		m.shards = append(m.shards, sh)
	}
	m.gauges()
	return m, nil
}

// emit records one fleet-level event. Fleet-wide events carry no sid
// field; callers narrating a single session's fate (shed, park, admit,
// reject, realloc) pass an sid attribute so the event survives a
// per-session filter. The Step coordinate is a fleet-wide ordinal (arrival
// order, not deterministic across runs; fleet events are operational, not
// part of the determinism contract).
func (m *Manager) emit(name string, fields ...slog.Attr) {
	if !m.rec.Enabled() {
		return
	}
	m.mu.Lock()
	step := m.seq
	m.seq++
	m.mu.Unlock()
	m.rec.Record(obs.Event{Name: name, Step: step, Fields: fields})
}

// beginSpan opens a fleet-level span: its begin and end events share one
// fleet ordinal (the Step coordinate), which — with the name and fields —
// derives the span id joining the pair. Like emit, the ordinal is arrival
// order, operational rather than deterministic; wall-clock goes only to
// hist. When the recorder is disabled no ordinal is consumed, matching
// emit's accounting.
func (m *Manager) beginSpan(name string, hist *obs.Histogram, fields ...slog.Attr) obs.Span {
	var step uint64
	if m.rec.Enabled() {
		m.mu.Lock()
		step = m.seq
		m.seq++
		m.mu.Unlock()
	}
	return obs.BeginSpan(m.rec, hist, obs.Event{Name: name, Step: step, Fields: fields})
}

// Open creates (or, when a checkpoint exists under the fleet directory,
// resumes) the session and pins it to its shard. Opening an existing live
// session is an error.
//
// Under EnforceBudget, Open is an admission decision: a session the budget
// can give the minimum footprint is admitted (and the fleet's assignments
// replanned around it); one it cannot is parked in the bounded FIFO pending
// queue — it buffers submitted accesses and starts consuming when capacity
// frees — and an open past the queue's bound returns *AdmissionError.
func (m *Manager) Open(id string) error { return m.OpenTraced(id, "") }

// OpenTraced is Open carrying a client-chosen trace tag: when non-empty, the
// tag is stamped onto every one of the session's events (alongside sid) and
// echoed in the fleet.open record, so a client can correlate its own
// delivery attempts with the server-side session story. An empty tag is
// exactly Open — the session's event stream stays bit-identical to a solo
// daemon run, which is why the tag is opt-in per session rather than a
// fleet-wide default.
func (m *Manager) OpenTraced(id, trce string) error {
	if id == "" {
		return fmt.Errorf("fleet: empty session id")
	}
	stamp := func() obs.Recorder {
		if trce == "" {
			return obs.With(m.opts.Rec, slog.String("sid", id))
		}
		return obs.With(m.opts.Rec, slog.String("sid", id), slog.String("trace", trce))
	}
	sopts := m.opts.Session
	sopts.Dir = ""
	sopts.Keep = m.opts.Keep
	sopts.Reg = nil
	sopts.Rec = stamp()
	if m.opts.EnforceBudget {
		if b, ok := m.opts.Assignments[id]; ok {
			sopts.BudgetBytes = b
		} else if b, ok := m.restored[id]; ok {
			sopts.BudgetBytes = b
		}
	}
	if cfg := m.opts.Configure; cfg != nil {
		cfg(id, &sopts)
		// The hook cannot take over the fleet-managed fields.
		sopts.Dir = ""
		sopts.Keep = m.opts.Keep
		sopts.Reg = nil
		sopts.Rec = stamp()
	}
	if m.store != nil {
		// daemon.New opens (creating) the store; the tree needs no other
		// record of the session.
		sopts.Dir = m.store.SessionDir(id)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("fleet: manager closed")
	}
	if _, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return fmt.Errorf("fleet: session %q already open", id)
	}
	m.mu.Unlock()

	d, err := daemon.New(sopts)
	if err != nil {
		return fmt.Errorf("fleet: open %q: %w", id, err)
	}
	s := &session{id: id, shard: m.shards[shardOf(id, len(m.shards))], d: d, skip: d.Consumed(), sopts: sopts}
	s.cond = sync.NewCond(&s.mu)
	s.budget = sopts.BudgetBytes

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("fleet: manager closed")
	}
	if _, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return fmt.Errorf("fleet: session %q already open", id)
	}
	parked := false
	if m.opts.EnforceBudget {
		// Failed sessions hold no capacity: they are live (their report and
		// health remain queryable) but stop counting against admission.
		admitted := len(m.sessions) - len(m.pending) - m.failed
		switch {
		case (admitted+1)*m.minBytes <= m.opts.AllocBudgetBytes:
			// Admitted: the budget covers every session's minimum
			// footprint with this one included.
		case m.opts.PendingQueue > 0 && len(m.pending) < m.opts.PendingQueue:
			parked = true
			s.parked = true
			m.pending = append(m.pending, s)
		default:
			m.rejected++
			live := len(m.sessions)
			m.mu.Unlock()
			aerr := &AdmissionError{
				SID:         id,
				Reason:      fmt.Sprintf("budget cannot cover a %dth session's %d B minimum footprint and the pending queue is full", admitted+1, m.minBytes),
				Sessions:    live,
				BudgetBytes: m.opts.AllocBudgetBytes,
			}
			if reg := m.opts.Reg; reg != nil {
				reg.Counter("fleet_admission_rejected_total").Inc()
			}
			m.emit("fleet.reject",
				slog.String("sid", id),
				slog.String("reason", aerr.Reason),
				slog.Int("live", live))
			return aerr
		}
	}
	m.sessions[id] = s
	m.mu.Unlock()
	openFields := []slog.Attr{
		slog.String("session", id),
		slog.Int("shard", s.shard.id),
		slog.Bool("recovered", d.Recovered()),
		slog.Uint64("consumed", d.Consumed()),
	}
	if trce != "" {
		openFields = append(openFields, slog.String("trace", trce))
	}
	m.emit("fleet.open", openFields...)
	if parked {
		m.emit("fleet.park", slog.String("sid", id))
	}
	m.gauges()
	if !parked {
		m.replan()
	}
	m.persistState()
	return nil
}

// lookup returns the live session or an error naming the failure.
func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown session %q", id)
	}
	return s, nil
}

// Submit feeds a batch of accesses to the session, in arrival order. A
// session's stream must be replayed from its beginning: a session resumed
// from a checkpoint silently discards the prefix a previous life already
// consumed (the same contract as daemon.Run), so clients re-stream the
// whole trace after a fleet restart without double-feeding. Submit blocks
// while the session's in-flight accesses exceed QueueDepth (backpressure),
// unless Shed is set, in which case the whole batch is dropped and counted
// instead.
//
// A session out of Active returns *HealthError. Quarantined submissions are
// discarded while they tick the batch-count backoff down; the call that
// exhausts it revives the session from its last good checkpoint and returns
// a *HealthError with Revived set — the submitter then re-streams the trace
// from byte 0 and the consumed-prefix skip keeps the effect exactly-once.
// Failed is terminal and every submission reports it. Per session,
// submitters must be serialised — concurrent Submits to one session have no
// defined order.
//
// Submit does not copy accs: the fleet keeps the slice until the session's
// shard worker has stepped it, and the caller must not modify it after the
// call returns.
func (m *Manager) Submit(id string, accs []trace.Access) error {
	_, err := m.submit(id, accs, nil)
	return err
}

// submit is Submit reporting whether the fleet kept accs: queued it on the
// shard, where the worker reads it later. A kept batch from a non-nil pool
// goes back to that pool once the worker has stepped it; a batch the fleet
// did not keep (skipped, shed, buffered while parked, refused) is the
// caller's again as soon as submit returns.
func (m *Manager) submit(id string, accs []trace.Access, pool *batchPool) (kept bool, err error) {
	s, err := m.lookup(id)
	if err != nil {
		return false, err
	}
	batch := accs

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, fmt.Errorf("fleet: session %q is closed", id)
	}
	if s.health != Active {
		return false, m.submitUnhealthy(s)
	}
	if s.skip > 0 {
		n := uint64(len(accs))
		if n > s.skip {
			n = s.skip
		}
		s.skip -= n
		accs = accs[n:]
	}
	if len(accs) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	if m.opts.Shed && s.inFlight+len(accs) > m.opts.QueueDepth {
		s.shed += uint64(len(accs))
		shed := s.shed
		s.mu.Unlock()
		if m.opts.Reg != nil {
			m.opts.Reg.CounterWith("fleet_shed_accesses_total", "session", id).Add(uint64(len(accs)))
		}
		m.emit("fleet.shed",
			slog.String("sid", id),
			slog.Int("dropped", len(accs)),
			slog.Uint64("total", shed))
		return false, nil
	}
	for !m.opts.Shed && s.inFlight > 0 && s.inFlight+len(accs) > m.opts.QueueDepth {
		s.cond.Wait()
		if s.closed {
			s.mu.Unlock()
			return false, fmt.Errorf("fleet: session %q is closed", id)
		}
	}
	if s.health != Active {
		// The worker quarantined the session while this submitter waited
		// out backpressure; the batch joins the discard-and-tick flow.
		return false, m.submitUnhealthy(s)
	}
	s.inFlight += len(accs)
	depth := s.inFlight
	if s.parked {
		// Parked by admission control: hold the batch locally. The buffer
		// obeys the same QueueDepth bound as the shard queue (the wait
		// above), so a never-admitted session exerts backpressure — or
		// sheds — instead of ballooning memory. Admission flushes buf to
		// the shard under s.mu, so arrival order is preserved.
		s.buf = append(s.buf, accs...)
		s.mu.Unlock()
		if reg := m.opts.Reg; reg != nil {
			reg.GaugeWith("fleet_session_queue", "session", id).Set(float64(depth))
		}
		return false, nil
	}
	// Enqueue under s.mu: a concurrent CloseSession also enqueues under
	// s.mu, so its close item can never be overtaken by a data batch that
	// passed the closed check earlier. (Lock order s.mu → shard.mu is safe:
	// the worker never holds both.)
	s.shard.enqueue(item{s: s, accs: accs, epoch: s.epoch, pool: pool, batch: batch})
	s.mu.Unlock()
	if reg := m.opts.Reg; reg != nil {
		reg.GaugeWith("fleet_session_queue", "session", id).Set(float64(depth))
	}
	return true, nil
}

// healthErr builds the typed error for a session out of Active, nil
// otherwise. Callers hold s.mu.
func (s *session) healthErrLocked() error {
	if s.health == Active {
		return nil
	}
	e := &HealthError{SID: s.id, State: s.health}
	if s.cause != nil {
		e.Cause = s.cause.Error()
	}
	if s.health == Quarantined {
		e.ReviveInBatches = s.backoff
	}
	return e
}

// healthErr is healthErrLocked taking the lock.
func (s *session) healthErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthErrLocked()
}

// submitUnhealthy handles a Submit to a session out of Active. Called with
// s.mu held; releases it. The payload is always discarded. Failed reports
// the terminal error; Quarantined ticks the batch-count backoff and — on the
// call that exhausts it — revives the session.
func (m *Manager) submitUnhealthy(s *session) error {
	if s.health == Failed {
		err := s.healthErrLocked()
		s.mu.Unlock()
		return err
	}
	s.backoff--
	if s.backoff > 0 {
		err := s.healthErrLocked()
		s.mu.Unlock()
		return err
	}
	return m.revive(s)
}

// revive rebuilds a quarantined session's daemon from its last good
// checkpoint generation (or from scratch when persistence is off — still
// equivalence-preserving, just more replay) and returns it to Active.
// Called with s.mu held; releases it. The returned *HealthError has Revived
// set: the caller must re-stream from byte 0.
func (m *Manager) revive(s *session) error {
	sopts := s.sopts
	sopts.BudgetBytes = s.budget
	cause := s.cause
	revives := s.revives + 1
	s.mu.Unlock()

	d, err := daemon.New(sopts)
	if err != nil {
		// The checkpoint store itself is unusable: terminal.
		s.mu.Lock()
		s.health = Failed
		s.cause = fmt.Errorf("revive: %w (after %v)", err, cause)
		fcause := s.cause
		herr := s.healthErrLocked()
		s.mu.Unlock()
		m.mu.Lock()
		m.quarantined--
		m.mu.Unlock()
		m.noteFailed(s, fcause)
		return herr
	}

	s.mu.Lock()
	if s.closed || s.health != Quarantined {
		s.mu.Unlock()
		return fmt.Errorf("fleet: session %q is closed", s.id)
	}
	s.d = d
	s.health = Active
	s.cause = nil
	s.revives = revives
	s.epoch++ // batches enqueued against the dead daemon are now stale
	s.skip = d.Consumed()
	// ResumeSession prefers the checkpointed budget; if a reallocation
	// landed after the last persist, re-stage it for the worker.
	s.budgetDirty = d.Budget() != s.budget
	s.mu.Unlock()

	m.mu.Lock()
	m.quarantined--
	m.mu.Unlock()
	if reg := m.opts.Reg; reg != nil {
		reg.Counter("fleet_revives_total").Inc()
	}
	m.emit("fleet.revive",
		slog.String("sid", s.id),
		slog.Int("revives", revives),
		slog.Bool("recovered", d.Recovered()),
		slog.Uint64("consumed", d.Consumed()),
		slog.String("cause", cause.Error()))
	m.gauges()
	return &HealthError{SID: s.id, State: Active, Cause: cause.Error(), Revived: true}
}

// reviveBackoffBatches is the quarantine backoff base, counted in
// submissions to the quarantined session (never wall-clock — the house
// determinism invariant): the first quarantine holds for this many Submit
// calls, doubling on each subsequent quarantine of the same session.
const reviveBackoffBatches = 2

// quarantine moves an Active session out of service after a worker failure:
// its daemon is dropped (the last good checkpoint generation stays on disk),
// and the session either waits out a batch-count backoff before revival or
// — once the revive cap is exhausted — goes to Failed for good. Called by
// the shard worker with no locks held.
func (m *Manager) quarantine(s *session, cause error) {
	s.mu.Lock()
	if s.health != Active {
		s.mu.Unlock()
		return
	}
	terminal := m.opts.MaxRevives < 0 || s.revives >= m.opts.MaxRevives
	s.cause = cause
	if terminal {
		s.health = Failed
	} else {
		s.health = Quarantined
		// Deterministic batch-count backoff, doubling per revival.
		s.backoff = reviveBackoffBatches << s.revives
	}
	backoff := s.backoff
	revives := s.revives
	s.cond.Broadcast()
	s.mu.Unlock()

	if terminal {
		m.noteFailed(s, cause)
		return
	}
	m.mu.Lock()
	m.quarantined++
	m.mu.Unlock()
	if reg := m.opts.Reg; reg != nil {
		reg.Counter("fleet_quarantines_total").Inc()
	}
	m.emit("fleet.quarantine",
		slog.String("sid", s.id),
		slog.String("error", cause.Error()),
		slog.Int("revive_after", backoff),
		slog.Int("revives", revives))
	m.gauges()
}

// noteFailed records a session's terminal failure: the reasoned event, the
// counters, and — because a failed session holds no capacity — the admission
// slot release (parked sessions may now fit) and a replan over the
// survivors.
func (m *Manager) noteFailed(s *session, cause error) {
	m.mu.Lock()
	m.failed++
	m.mu.Unlock()
	if reg := m.opts.Reg; reg != nil {
		reg.Counter("fleet_sessions_failed_total").Inc()
	}
	m.emit("fleet.session_failed",
		slog.String("sid", s.id),
		slog.String("error", cause.Error()))
	m.gauges()
	m.admitPending()
	m.replan()
	m.persistState()
}

// CloseSession flushes the session through its shard (all submitted
// batches are consumed first — the queue is FIFO), persists the final
// boundary snapshot, releases the session, and reports its health error if
// it left Active along the way.
func (m *Manager) CloseSession(id string) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("fleet: session %q is closed", id)
	}
	s.closed = true
	s.cond.Broadcast()
	// A parked session's buffered batches were never granted capacity and
	// are discarded; only the close item reaches the worker.
	s.buf = nil
	done := make(chan error, 1)
	s.shard.enqueue(item{s: s, close: true, done: done})
	s.mu.Unlock()
	err = <-done

	rep := m.report(s)
	s.mu.Lock()
	d, health := s.d, s.health
	s.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, id)
	for i, p := range m.pending {
		if p == s {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	switch health {
	case Failed:
		m.failed--
	case Quarantined:
		m.quarantined--
	}
	m.reports = append(m.reports, rep)
	m.mu.Unlock()
	m.emit("fleet.close",
		slog.String("session", id),
		slog.Uint64("consumed", d.Consumed()),
		slog.Uint64("windows", d.Windows()))
	m.gauges()
	m.admitPending()
	m.replan()
	m.persistState()
	if err != nil {
		return fmt.Errorf("fleet: close %q: %w", id, err)
	}
	return s.healthErr()
}

// report captures a session's shutdown summary (called after its worker
// quiesced it).
func (m *Manager) report(s *session) SessionReport {
	s.mu.Lock()
	d := s.d
	shed := s.shed
	health := s.health
	revives := s.revives
	s.mu.Unlock()
	rep := SessionReport{
		ID:       s.id,
		Consumed: d.Consumed(),
		Windows:  d.Windows(),
		Retunes:  d.Retunes(),
		Budget:   d.Budget(),
		Health:   health,
		Revives:  revives,
		Shed:     shed,
	}
	if out := d.Settled(); out != nil {
		rep.SettledBytes = out.Cfg.SizeBytes
		rep.Degraded = out.Degraded
	}
	if res, ok := d.Session().LastResult(); ok {
		rep.MissesPerWindow = float64(res.Best.Stats.Misses)
	}
	return rep
}

// admitPending admits parked sessions, FIFO, while the budget covers them,
// flushing each one's buffered batches to its shard in arrival order.
func (m *Manager) admitPending() {
	if !m.opts.EnforceBudget {
		return
	}
	var admit []*session
	m.mu.Lock()
	for len(m.pending) > 0 {
		admitted := len(m.sessions) - len(m.pending) - m.failed
		if (admitted+1)*m.minBytes > m.opts.AllocBudgetBytes {
			break
		}
		admit = append(admit, m.pending[0])
		m.pending = m.pending[1:]
		m.unparked++
	}
	m.mu.Unlock()
	for _, s := range admit {
		s.mu.Lock()
		s.parked = false
		if len(s.buf) > 0 {
			// inFlight already counts the buffered accesses; the worker
			// decrements as it consumes them.
			s.shard.enqueue(item{s: s, accs: s.buf, epoch: s.epoch})
			s.buf = nil
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if reg := m.opts.Reg; reg != nil {
			reg.Counter("fleet_admitted_from_queue_total").Inc()
		}
		m.emit("fleet.admit", slog.String("sid", s.id))
	}
	if len(admit) > 0 {
		m.gauges()
	}
}

// Pending lists the parked session IDs in FIFO admission order.
func (m *Manager) Pending() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.pending))
	for _, s := range m.pending {
		ids = append(ids, s.id)
	}
	return ids
}

// Budget reports the session's capacity assignment in force (0 when
// unconstrained or outside enforce mode).
func (m *Manager) Budget(id string) (int, error) {
	s, err := m.lookup(id)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget, nil
}

// Sessions lists the live session IDs, sorted.
func (m *Manager) Sessions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Session returns the live session's daemon for status inspection. The
// daemon is owned by its shard worker; callers must not Step it. Revival
// replaces the daemon, so hold the result no longer than the inspection.
func (m *Manager) Session(id string) (*daemon.Daemon, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d, nil
}

// Health reports the session's health state; the error is a lookup
// failure. The typed *HealthError with the cause comes back from Submit
// and CloseSession.
func (m *Manager) Health(id string) (Health, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Active, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health, nil
}

// Shed reports the accesses dropped for the session under shed mode.
func (m *Manager) Shed(id string) (uint64, error) {
	s, err := m.lookup(id)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed, nil
}

// Quiesce blocks until every access submitted to the session so far has
// been consumed by its shard worker (releasing the session's lock after
// the final Step), so the caller may read the daemon's single-owner
// accessors — Consumed, Settled, Events — without racing the worker. A
// parked session quiesces only once admitted and drained; a killed
// session releases quiescers immediately.
func (m *Manager) Quiesce(id string) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inFlight > 0 && !s.closed {
		s.cond.Wait()
	}
	return nil
}

// Close closes every live session (final persists included) and stops the
// shard workers. The first session close error is returned.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	var first error
	for _, id := range ids {
		if err := m.CloseSession(id); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.stop = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	for _, sh := range m.shards {
		sh.wg.Wait()
	}
	return first
}

// Kill abandons the fleet without persisting anything — the chaos harness's
// stand-in for SIGKILL. Queued work is dropped on the floor, blocked
// submitters are released with a closed error, and every session daemon is
// dropped; durable state stays whatever the periodic checkpoints (and
// persistState calls) already wrote. Not for use concurrently with
// CloseSession.
func (m *Manager) Kill() {
	m.mu.Lock()
	m.closed = true
	ss := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	for _, s := range ss {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.kill = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	for _, sh := range m.shards {
		sh.wg.Wait()
	}
}

// SessionReport is one closed session's shutdown summary.
type SessionReport struct {
	ID       string
	Consumed uint64
	Windows  uint64
	Retunes  uint64
	// Budget is the capacity assignment in force at close, 0 when
	// unconstrained.
	Budget int
	// SettledBytes is the settled configuration's capacity (0 while a
	// search was still running at close); Degraded marks a watchdog or
	// fault fallback.
	SettledBytes int
	Degraded     bool
	// MissesPerWindow is the settled configuration's measured misses over
	// one measurement window — the fleet A/B experiment's metric.
	MissesPerWindow float64
	Shed            uint64
	// Health is the session's final health state; Revives counts how many
	// times it came back from quarantine along the way.
	Health  Health
	Revives int
}

// Report is the fleet's shutdown summary: every closed session plus the
// admission counters, the advisory-vs-enforced A/B surface printed by
// cmd/stcd at exit.
type Report struct {
	// Enforced and BudgetBytes echo the fleet's capacity options.
	Enforced    bool
	BudgetBytes int
	// Rejected counts opens refused by admission control; Unparked counts
	// sessions admitted from the pending queue.
	Rejected uint64
	Unparked uint64
	// WorkerPanics counts panics contained by shard workers.
	WorkerPanics uint64
	// Sessions holds one report per closed session, sorted by ID.
	Sessions []SessionReport
	// TotalMissesPerWindow and SettledBytesTotal sum the per-session
	// settled figures.
	TotalMissesPerWindow float64
	SettledBytesTotal    int
}

// Report summarises the sessions closed so far (after Close: the whole
// fleet) together with the admission counters.
func (m *Manager) Report() Report {
	m.mu.Lock()
	r := Report{
		Enforced:     m.opts.EnforceBudget,
		BudgetBytes:  m.opts.AllocBudgetBytes,
		Rejected:     m.rejected,
		Unparked:     m.unparked,
		WorkerPanics: m.panics,
		Sessions:     append([]SessionReport(nil), m.reports...),
	}
	m.mu.Unlock()
	sort.Slice(r.Sessions, func(i, j int) bool { return r.Sessions[i].ID < r.Sessions[j].ID })
	for _, s := range r.Sessions {
		r.TotalMissesPerWindow += s.MissesPerWindow
		r.SettledBytesTotal += s.SettledBytes
	}
	return r
}

// enqueue appends one work item to the shard's FIFO queue, stamping the
// enqueue instant the queue-wait histogram measures from.
func (sh *shard) enqueue(it item) {
	it.enq = time.Now()
	sh.mu.Lock()
	sh.q = append(sh.q, it)
	sh.cond.Signal()
	sh.mu.Unlock()
}

// work is a shard worker: it drains the queue in FIFO order, which — with
// each session pinned to exactly one shard — serialises every session's
// accesses in submission order. A kill abandons whatever is still queued.
func (m *Manager) work(sh *shard) {
	defer sh.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.q) == 0 && !sh.stop && !sh.kill {
			sh.cond.Wait()
		}
		if sh.kill || len(sh.q) == 0 {
			sh.mu.Unlock()
			return
		}
		it := sh.q[0]
		sh.q = sh.q[1:]
		sh.served++
		sh.mu.Unlock()
		m.hists.wait().ObserveSince(it.enq)
		m.process(it)
	}
}

// process runs one work item on the worker goroutine.
func (m *Manager) process(it item) {
	s := it.s
	// Snapshot the daemon and liveness under s.mu: revival swaps s.d and
	// bumps the epoch, so a batch enqueued against a dead daemon (stale
	// epoch) is discarded here instead of corrupting the revived stream's
	// position. Close items always act on the current daemon.
	s.mu.Lock()
	d := s.d
	live := s.health == Active && it.epoch == s.epoch
	var dirty bool
	var b int
	if live && !it.close {
		dirty, b = s.budgetDirty, s.budget
		s.budgetDirty = false
	}
	s.mu.Unlock()
	if it.close {
		it.done <- m.runClose(s, d)
		return
	}
	var failure error
	if live {
		if dirty {
			// Apply a staged reallocation at the batch start: the worker
			// owns the daemon, so this is the one point where changing the
			// budget is serialised with Step. SetBudget no-ops when
			// unchanged.
			d.SetBudget(b)
		}
		// The batch span carries the session attr (not sid): its ordinal
		// and timing are fleet-operational, not part of the session's
		// deterministic story.
		sp := m.beginSpan("fleet.batch", m.hists.span(),
			slog.String("session", s.id),
			slog.Int("shard", s.shard.id))
		failure = m.runBatch(s, d, it.accs)
		sp.End(slog.Uint64("work", uint64(len(it.accs))),
			slog.String("unit", "accesses"),
			slog.Bool("ok", failure == nil))
	}
	// Recycle before waking the submitter, so the buffer it reaches for
	// next is already back in the pool.
	it.pool.put(it.batch)
	s.mu.Lock()
	s.inFlight -= len(it.accs)
	s.cond.Broadcast()
	s.mu.Unlock()
	if failure != nil {
		m.quarantine(s, failure)
	} else if live {
		m.observe(s, d)
	}
}

// runBatch steps one batch on the shard worker, converting a panic anywhere
// under Step — tuner, meter, persistence — into an error on this session
// only: the worker survives and keeps serving its other tenants.
func (m *Manager) runBatch(s *session, d *daemon.Daemon, accs []trace.Access) (failure error) {
	defer func() {
		if r := recover(); r != nil {
			m.notePanic(s, r)
			failure = fmt.Errorf("fleet: worker panic: %v", r)
		}
	}()
	for len(accs) > 0 {
		n, _, err := d.StepBatch(accs)
		if err != nil {
			return err
		}
		accs = accs[n:]
		// Per chunk: a chunk ends at every window boundary, and a settle
		// and any later re-tune fall on different boundaries, so a settle
		// followed by a re-tune inside one batch is still captured.
		m.maybeProfile(s, d)
	}
	return nil
}

// runClose closes the daemon on the worker, converting a panic inside the
// final persist-and-release into an error so one session's poisoned close
// cannot take down the shard worker and every other tenant pinned to it.
// After a panic the daemon is dropped; durable state stays at the last good
// checkpoint generation.
func (m *Manager) runClose(s *session, d *daemon.Daemon) (err error) {
	defer func() {
		if r := recover(); r != nil {
			m.notePanic(s, r)
			err = fmt.Errorf("fleet: worker panic during close: %v", r)
		}
	}()
	return d.Close()
}

// notePanic records a contained worker panic: the fleet counter, the
// session-stamped event.
func (m *Manager) notePanic(s *session, r any) {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
	if reg := m.opts.Reg; reg != nil {
		reg.Counter("fleet_worker_panics_total").Inc()
	}
	m.emit("fleet.worker_panic",
		slog.String("sid", s.id),
		slog.Int("shard", s.shard.id),
		slog.String("panic", fmt.Sprint(r)))
}

// observe refreshes the session's labelled gauges (once per batch).
func (m *Manager) observe(s *session, d *daemon.Daemon) {
	reg := m.opts.Reg
	if reg == nil {
		return
	}
	reg.GaugeWith("fleet_session_consumed", "session", s.id).Set(float64(d.Consumed()))
	reg.GaugeWith("fleet_session_windows", "session", s.id).Set(float64(d.Windows()))
	reg.GaugeWith("fleet_session_retunes", "session", s.id).Set(float64(d.Retunes()))
	tuning := 0.0
	if d.Tuning() {
		tuning = 1
	}
	reg.GaugeWith("fleet_session_tuning", "session", s.id).Set(tuning)
	if out := d.Settled(); out != nil {
		reg.GaugeWith("fleet_session_settled_bytes", "session", s.id).Set(float64(out.Cfg.SizeBytes))
	}
	s.mu.Lock()
	depth := s.inFlight
	s.mu.Unlock()
	reg.GaugeWith("fleet_session_queue", "session", s.id).Set(float64(depth))
}

// maybeProfile refreshes the session's allocator profile when a new search
// has settled since the last look.
func (m *Manager) maybeProfile(s *session, d *daemon.Daemon) {
	if m.opts.AllocBudgetBytes <= 0 {
		return
	}
	out := d.Settled()
	if out == nil || out.Degraded || out.At == s.profiledAt {
		return
	}
	res, ok := d.Session().LastResult()
	if !ok {
		return
	}
	s.profiledAt = out.At
	prof, ok := allocator.FromResults(s.id, res.Examined)
	if !ok {
		return
	}
	m.updateProfile(prof)
	if m.opts.EnforceBudget {
		// A refreshed curve can shift the optimal partition: replan and
		// persist so the new assignments reach the sessions (at their next
		// batch) and survive a crash.
		m.replan()
		m.persistState()
	}
}

// updateProfile installs a refreshed session profile and re-runs the
// allocation when the cadence is due. By default the plan is advisory —
// telemetry and gauges for the platform's capacity controller — and never
// alters a session's own tuning decisions; with EnforceBudget the new plan
// is pushed back onto unpinned sessions as budget constraints (replan).
func (m *Manager) updateProfile(p allocator.Profile) {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	m.profiles[p.ID] = p
	m.settles++
	if m.settles < m.opts.AllocEvery {
		return
	}
	m.settles = 0
	profs := make([]allocator.Profile, 0, len(m.profiles))
	for _, prof := range m.profiles {
		profs = append(profs, prof)
	}
	alloc := allocator.Greedy
	algo := "greedy"
	if m.opts.AllocDP {
		alloc, algo = allocator.DP, "dp"
	}
	plan, err := alloc(m.opts.AllocBudgetBytes, m.opts.AllocUnit, profs)
	if err != nil {
		m.emit("fleet.alloc_error", slog.String("error", err.Error()))
		return
	}
	m.plan = &plan
	m.allocOrdinals++
	fields := []slog.Attr{
		slog.String("algo", algo),
		slog.Uint64("ordinal", m.allocOrdinals),
		slog.Int("budget_bytes", plan.TotalBytes),
		slog.Int("assigned_bytes", plan.AssignedBytes),
		slog.Float64("total_misses", plan.TotalMisses),
	}
	for _, a := range plan.Assignments {
		fields = append(fields, slog.Group(a.ID,
			slog.Int("bytes", a.Bytes),
			slog.Float64("misses", a.Misses)))
	}
	m.emit("fleet.alloc", fields...)
	if reg := m.opts.Reg; reg != nil {
		reg.Counter("fleet_allocs_total").Inc()
		reg.Gauge("fleet_alloc_assigned_bytes").Set(float64(plan.AssignedBytes))
		for _, a := range plan.Assignments {
			reg.GaugeWith("fleet_alloc_bytes", "session", a.ID).Set(float64(a.Bytes))
		}
	}
}

// Plan returns the most recent capacity allocation, nil before the first.
func (m *Manager) Plan() *allocator.Plan {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	return m.plan
}

// alignDown rounds n down to a multiple of unit, never below floor.
func alignDown(n, unit, floor int) int {
	n -= n % unit
	if n < floor {
		n = floor
	}
	return n
}

// replan recomputes every admitted session's capacity assignment (enforce
// mode) — on open, close and profile refresh. Pinned sessions keep their
// Options.Assignments value and subtract from the pool; unprofiled dynamic
// sessions take an equal unit-aligned share; profiled dynamic sessions split
// what remains by the allocator (greedy or DP over their miss-ratio curves,
// falling back to the equal share if the planner rejects the request).
// Changed assignments are staged on the session (budgetDirty) and applied by
// its shard worker at the next batch start — the only point serialised with
// the daemon's Step — and announced as a sid-stamped "fleet.realloc" event.
func (m *Manager) replan() {
	if !m.opts.EnforceBudget {
		return
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()

	m.mu.Lock()
	live := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		s.mu.Lock()
		ok := !s.parked && s.health != Failed // failed sessions hold no capacity
		s.mu.Unlock()
		if ok {
			live = append(live, s)
		}
	}
	m.mu.Unlock()
	if len(live) == 0 {
		return
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })

	assign := map[string]int{}
	pool := m.opts.AllocBudgetBytes
	var dynamic []*session
	for _, s := range live {
		if b, ok := m.opts.Assignments[s.id]; ok {
			assign[s.id] = b
			pool -= b
		} else {
			dynamic = append(dynamic, s)
		}
	}
	if len(dynamic) > 0 {
		share := alignDown(pool/len(dynamic), m.opts.AllocUnit, m.minBytes)
		var profiled []allocator.Profile
		for _, s := range dynamic {
			if p, ok := m.profiles[s.id]; ok {
				profiled = append(profiled, p)
			} else {
				assign[s.id] = share
				pool -= share
			}
		}
		if len(profiled) > 0 {
			alloc := allocator.Greedy
			if m.opts.AllocDP {
				alloc = allocator.DP
			}
			plan, err := alloc(pool, m.opts.AllocUnit, profiled)
			if err == nil {
				for _, a := range plan.Assignments {
					assign[a.ID] = a.Bytes
				}
			} else {
				// The curves' minima exceed what is left (a pinned or
				// unprofiled session squeezed the pool): degrade to the
				// equal share rather than leaving stale assignments.
				m.emit("fleet.alloc_error", slog.String("error", err.Error()))
				for _, p := range profiled {
					assign[p.ID] = share
				}
			}
		}
	}

	for _, s := range live {
		b, ok := assign[s.id]
		if !ok || b <= 0 {
			continue
		}
		s.mu.Lock()
		prev := s.budget
		changed := b != prev
		if changed {
			s.budget = b
			s.budgetDirty = true
		}
		s.mu.Unlock()
		if !changed {
			continue
		}
		m.emit("fleet.realloc",
			slog.String("sid", s.id),
			slog.Int("budget_bytes", b),
			slog.Int("prev_bytes", prev))
		if reg := m.opts.Reg; reg != nil {
			reg.GaugeWith("fleet_assigned_bytes", "session", s.id).Set(float64(b))
		}
	}
}

// persistState writes the fleet-level durable state (assignments, pending
// queue, profiles) so a restarted fleet recovers its admission and
// allocation decisions; see checkpoint.FleetState. No-op outside enforce
// mode or without a store.
func (m *Manager) persistState() {
	if m.store == nil || !m.opts.EnforceBudget {
		return
	}
	st := &checkpoint.FleetState{Assignments: map[string]int{}}
	m.mu.Lock()
	for id, s := range m.sessions {
		s.mu.Lock()
		b := s.budget
		skip := s.parked || s.health == Failed
		s.mu.Unlock()
		if skip {
			continue
		}
		if b > 0 {
			st.Assignments[id] = b
		}
	}
	for _, s := range m.pending {
		st.Pending = append(st.Pending, s.id)
	}
	m.mu.Unlock()
	m.allocMu.Lock()
	ids := make([]string, 0, len(m.profiles))
	for id := range m.profiles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := m.profiles[id]
		fp := checkpoint.FleetProfile{ID: p.ID, Weight: p.Weight}
		for _, pt := range p.Points {
			fp.Points = append(fp.Points, checkpoint.MRCPoint{Bytes: pt.Bytes, MissRate: pt.MissRate})
		}
		st.Profiles = append(st.Profiles, fp)
	}
	m.allocMu.Unlock()
	if err := m.store.SaveState(st); err != nil {
		m.emit("fleet.state_error", slog.String("error", err.Error()))
	}
}

// gauges refreshes the fleet-level registry series.
func (m *Manager) gauges() {
	reg := m.opts.Reg
	if reg == nil {
		return
	}
	m.mu.Lock()
	n := len(m.sessions)
	pending := len(m.pending)
	quarantined := m.quarantined
	failed := m.failed
	m.mu.Unlock()
	reg.Gauge("fleet_sessions").Set(float64(n))
	reg.Gauge("fleet_sessions_pending").Set(float64(pending))
	reg.Gauge("fleet_sessions_quarantined").Set(float64(quarantined))
	reg.Gauge("fleet_sessions_failed").Set(float64(failed))
	reg.Gauge("fleet_shards").Set(float64(len(m.shards)))
}
