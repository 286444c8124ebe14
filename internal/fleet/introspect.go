package fleet

import (
	"sort"

	"selftune/internal/daemon"
	"selftune/internal/obs"
)

// fleetHists bundles the fleet's wall-clock latency histograms. Like
// daemon.SessionHists, wall-clock lives only on the /metrics surface: the
// fleet's span events carry deterministic work units, never durations. A nil
// *fleetHists (registry disabled) records nothing.
type fleetHists struct {
	// queueWait is the time one work item spent in its shard's FIFO queue,
	// enqueue to dequeue — the backpressure signal capacity planning reads.
	queueWait *obs.Histogram
	// batch is one batch replay on a shard worker, begin to end of the
	// "fleet.batch" span.
	batch *obs.Histogram
	// connRead is the time to read one data frame's payload off an ingest
	// connection (transport-only: no deterministic work unit exists here,
	// so it is histogram-only, with no span twin).
	connRead *obs.Histogram
}

func newFleetHists(reg *obs.Registry) *fleetHists {
	reg.Describe("fleet_queue_wait_seconds", "Wall-clock time one work item waited in its shard queue, enqueue to dequeue.")
	reg.Describe("fleet_batch_seconds", "Wall-clock duration of one batch replay on a shard worker.")
	reg.Describe("fleet_conn_read_seconds", "Wall-clock time to read one data frame payload off an ingest connection.")
	return &fleetHists{
		queueWait: reg.Histogram("fleet_queue_wait_seconds"),
		batch:     reg.Histogram("fleet_batch_seconds"),
		connRead:  reg.Histogram("fleet_conn_read_seconds"),
	}
}

// wait/span/read are nil-safe accessors (obs.Histogram methods are
// themselves nil-receiver safe).
func (h *fleetHists) wait() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.queueWait
}

func (h *fleetHists) span() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.batch
}

func (h *fleetHists) read() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.connRead
}

// SessionStatus is one live session's row in the fleet's /statusz snapshot.
type SessionStatus struct {
	ID      string `json:"id"`
	Shard   int    `json:"shard"`
	Health  string `json:"health"`
	Cause   string `json:"cause,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Revives int    `json:"revives,omitempty"`
	// BudgetBytes is the capacity assignment in force (enforce mode).
	BudgetBytes int `json:"budget_bytes,omitempty"`
	// InFlight is the submitted-but-not-consumed access count (the
	// backpressure queue depth); Parked marks a session still waiting in
	// the admission queue.
	InFlight int    `json:"in_flight"`
	Parked   bool   `json:"parked,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
	// Daemon is the session daemon's own boundary-coherent snapshot.
	Daemon daemon.Status `json:"daemon"`
}

// ShardStatus is one worker's row: queue length now and items served so far.
type ShardStatus struct {
	ID     int    `json:"id"`
	Queued int    `json:"queued"`
	Served uint64 `json:"served"`
}

// Status is the fleet's /statusz snapshot: the live sessions, the shard
// workers, the admission queue and the allocator, in one coherent-enough
// read (each row is internally consistent; rows may be a batch apart).
type Status struct {
	Sessions []SessionStatus `json:"sessions"`
	Shards   []ShardStatus   `json:"shards"`
	// Pending lists parked session IDs in FIFO admission order.
	Pending []string `json:"pending,omitempty"`
	// Admission and containment counters (see Report).
	Rejected     uint64 `json:"rejected,omitempty"`
	Unparked     uint64 `json:"unparked,omitempty"`
	WorkerPanics uint64 `json:"worker_panics,omitempty"`
	// Enforced/BudgetBytes echo the capacity options; Allocs counts plan
	// recomputations and AssignedBytes is the latest plan's total.
	Enforced      bool   `json:"enforced,omitempty"`
	BudgetBytes   int    `json:"budget_bytes,omitempty"`
	Allocs        uint64 `json:"allocs,omitempty"`
	AssignedBytes int    `json:"assigned_bytes,omitempty"`
	// Kernel is the cache implementation every session serves through;
	// Build identifies the binary.
	Kernel string    `json:"kernel"`
	Build  obs.Build `json:"build"`
}

// Statusz snapshots the live fleet for the /statusz endpoint. Safe to call
// from any goroutine: per-session progress comes from each daemon's own
// boundary-refreshed status cell, never from the worker-owned accessors.
func (m *Manager) Statusz() Status {
	m.mu.Lock()
	st := Status{
		Rejected:     m.rejected,
		Unparked:     m.unparked,
		WorkerPanics: m.panics,
		Enforced:     m.opts.EnforceBudget,
		BudgetBytes:  m.opts.AllocBudgetBytes,
		Kernel:       daemon.ServingKernel,
		Build:        obs.ReadBuild(),
	}
	ss := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	for _, s := range m.pending {
		st.Pending = append(st.Pending, s.id)
	}
	m.mu.Unlock()

	for _, s := range ss {
		s.mu.Lock()
		row := SessionStatus{
			ID:          s.id,
			Shard:       s.shard.id,
			Health:      s.health.String(),
			Epoch:       s.epoch,
			Revives:     s.revives,
			BudgetBytes: s.budget,
			InFlight:    s.inFlight,
			Parked:      s.parked,
			Shed:        s.shed,
		}
		if s.cause != nil {
			row.Cause = s.cause.Error()
		}
		d := s.d
		s.mu.Unlock()
		row.Daemon = d.Statusz()
		st.Sessions = append(st.Sessions, row)
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })

	for _, sh := range m.shards {
		sh.mu.Lock()
		st.Shards = append(st.Shards, ShardStatus{ID: sh.id, Queued: len(sh.q), Served: sh.served})
		sh.mu.Unlock()
	}

	m.allocMu.Lock()
	st.Allocs = m.allocOrdinals
	if m.plan != nil {
		st.AssignedBytes = m.plan.AssignedBytes
	}
	m.allocMu.Unlock()
	return st
}
