// The fleet A/B: the same tenants under an advisory capacity plan (the
// allocator computes assignments nobody enforces — each session settles
// wherever its own search lands) versus the enforced plan (every search
// constrained to its assignment, admission control at the door). The
// experiment quantifies the enforcement trade: fleet-wide misses per window
// rise when budgets bind, and in exchange the settled footprint actually
// fits the budget — the advisory fleet routinely overshoots it.
//
// The fleet chaos soak is the crash-equivalence property lifted to enforce
// mode: an enforced fleet killed mid-stream and reopened over the same
// checkpoint root must recover its assignments and admission state from
// checkpoint.FleetStore and settle every session bit-identically to a fleet
// that never died.

package experiments

import (
	"fmt"
	"reflect"
	"sort"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/fleet"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// FleetABOptions parameterises one advisory-vs-enforced comparison.
type FleetABOptions struct {
	// Workloads names the tenant streams (each is its own session ID).
	Workloads []string
	// N is the accesses generated per tenant (the data subset feeds the
	// session, mirroring the single-daemon experiments).
	N int
	// Window is the measurement window. Default 1000.
	Window uint64
	// BudgetBytes is the shared capacity both fleets plan against.
	BudgetBytes int
	// Shards is the fleet worker count. Default 2.
	Shards int
	// DP selects the exact allocator over greedy.
	DP bool
}

// FleetABResult is the two shutdown reports side by side.
type FleetABResult struct {
	Advisory fleet.Report
	Enforced fleet.Report
	// MissesDeltaPerWindow is enforced minus advisory fleet-wide misses
	// per window: the price of fitting the budget.
	MissesDeltaPerWindow float64
	// AdvisoryOverBudget and EnforcedOverBudget are the settled footprints
	// beyond the budget (0 when the fleet fits).
	AdvisoryOverBudget int
	EnforcedOverBudget int
}

// FleetAB runs the same tenant set through an advisory fleet and an enforced
// fleet and reports both shutdown summaries.
func FleetAB(opt FleetABOptions) (*FleetABResult, error) {
	if opt.BudgetBytes <= 0 {
		return nil, fmt.Errorf("fleetab: BudgetBytes is required")
	}
	adv, err := runFleet(opt, false, "")
	if err != nil {
		return nil, fmt.Errorf("fleetab: advisory run: %w", err)
	}
	enf, err := runFleet(opt, true, "")
	if err != nil {
		return nil, fmt.Errorf("fleetab: enforced run: %w", err)
	}
	res := &FleetABResult{
		Advisory:             adv,
		Enforced:             enf,
		MissesDeltaPerWindow: enf.TotalMissesPerWindow - adv.TotalMissesPerWindow,
	}
	if over := adv.SettledBytesTotal - opt.BudgetBytes; over > 0 {
		res.AdvisoryOverBudget = over
	}
	if over := enf.SettledBytesTotal - opt.BudgetBytes; over > 0 {
		res.EnforcedOverBudget = over
	}
	return res, nil
}

// runFleet streams every tenant through one fleet (enforced or advisory) and
// returns its shutdown report.
func runFleet(opt FleetABOptions, enforce bool, dir string) (fleet.Report, error) {
	m, traces, err := openFleet(opt, enforce, dir, nil)
	if err != nil {
		return fleet.Report{}, err
	}
	if err := streamAll(m, traces); err != nil {
		return fleet.Report{}, err
	}
	if err := m.Close(); err != nil {
		return fleet.Report{}, err
	}
	return m.Report(), nil
}

// openFleet builds the fleet and opens every tenant session. Tenants a
// too-small budget cannot admit are an error here — the A/B compares full
// fleets, not partial ones.
func openFleet(opt FleetABOptions, enforce bool, dir string, pinned map[string]int) (*fleet.Manager, map[string][]trace.Access, error) {
	if opt.Window == 0 {
		opt.Window = 1_000
	}
	if opt.Shards <= 0 {
		opt.Shards = 2
	}
	traces := map[string][]trace.Access{}
	for _, name := range opt.Workloads {
		prof, ok := workload.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		accs := trace.OnlyData(prof.Generate(opt.N))
		traces[name] = accs
	}
	m, err := fleet.New(fleet.Options{
		Shards:           opt.Shards,
		Dir:              dir,
		Session:          daemon.Options{Window: opt.Window},
		AllocBudgetBytes: opt.BudgetBytes,
		AllocDP:          opt.DP,
		EnforceBudget:    enforce,
		Assignments:      pinned,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, id := range sortedIDs(traces) {
		if err := m.Open(id); err != nil {
			m.Close()
			return nil, nil, err
		}
	}
	return m, traces, nil
}

func sortedIDs(traces map[string][]trace.Access) []string {
	ids := make([]string, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FleetChaosOptions parameterises one enforced-fleet kill/resume trial.
type FleetChaosOptions struct {
	FleetABOptions
	// Assignments pins each tenant's budget (required: pinned assignments
	// are the deterministic subset of enforcement, see the fleet package's
	// determinism contract).
	Assignments map[string]int
	// KillAt is the per-session consumed count the kill waits for.
	// Default N/2.
	KillAt uint64
	// BaselineDir and ChaosDir are the two checkpoint roots (required,
	// distinct; the trial owns both).
	BaselineDir, ChaosDir string
}

// FleetChaosOutcome is the trial verdict.
type FleetChaosOutcome struct {
	// Recovered counts sessions the second life resumed from checkpoints.
	Recovered int
	// Equivalent is the verdict; Mismatch names the first divergence.
	Equivalent bool
	Mismatch   string
	// Baseline and Chaos are the two shutdown reports.
	Baseline, Chaos fleet.Report
}

// fleetSessionState is one session's decision history and outcome.
type fleetSessionState struct {
	log      []checkpoint.Event
	consumed uint64
	settled  *checkpoint.Outcome
	budget   int
}

// FleetChaos kills an enforced fleet mid-stream, reopens it over the same
// store, re-streams every tenant from the beginning (the consumed prefix is
// discarded, the daemon contract), and compares the result against an
// uninterrupted enforced fleet: assignments, decision logs and settles must
// match exactly.
func FleetChaos(opt FleetChaosOptions) (*FleetChaosOutcome, error) {
	if opt.BaselineDir == "" || opt.ChaosDir == "" || opt.BaselineDir == opt.ChaosDir {
		return nil, fmt.Errorf("fleetchaos: two distinct checkpoint roots are required")
	}
	if len(opt.Assignments) == 0 {
		return nil, fmt.Errorf("fleetchaos: pinned Assignments are required")
	}
	if opt.KillAt == 0 {
		opt.KillAt = uint64(opt.N) / 2
	}

	// Baseline: never killed.
	base, err := runFleetStates(opt, opt.BaselineDir)
	if err != nil {
		return nil, fmt.Errorf("fleetchaos: baseline: %w", err)
	}

	// Chaos: first life killed once every session passes KillAt.
	m, traces, err := openFleet(opt.FleetABOptions, true, opt.ChaosDir, opt.Assignments)
	if err != nil {
		return nil, fmt.Errorf("fleetchaos: first life: %w", err)
	}
	ids := sortedIDs(traces)
	const batch = 10_000
	for off := 0; off < int(opt.KillAt); off += batch {
		for _, id := range ids {
			tr := traces[id]
			end := off + batch
			if end > int(opt.KillAt) {
				end = int(opt.KillAt)
			}
			if end > len(tr) {
				end = len(tr)
			}
			if off < end {
				if err := m.Submit(id, tr[off:end]); err != nil {
					return nil, fmt.Errorf("fleetchaos: first life: %w", err)
				}
			}
		}
	}
	// Drain the shard queues so the kill lands at a known stream position
	// with checkpoints on disk (a kill mid-queue is legal but recovers
	// less, which pins less).
	for _, id := range ids {
		if err := m.Quiesce(id); err != nil {
			return nil, err
		}
	}
	m.Kill()

	// Second life: reopen, verify recovery, re-stream everything.
	out := &FleetChaosOutcome{Baseline: base.report}
	m2, _, err := openFleet(opt.FleetABOptions, true, opt.ChaosDir, opt.Assignments)
	if err != nil {
		return nil, fmt.Errorf("fleetchaos: second life: %w", err)
	}
	for _, id := range ids {
		d, err := m2.Session(id)
		if err != nil {
			return nil, err
		}
		if d.Recovered() {
			out.Recovered++
		}
	}
	if err := streamAll(m2, traces); err != nil {
		return nil, fmt.Errorf("fleetchaos: second life: %w", err)
	}
	chaos, err := captureAndClose(m2, traces)
	if err != nil {
		return nil, fmt.Errorf("fleetchaos: second life: %w", err)
	}
	out.Chaos = chaos.report

	out.Equivalent, out.Mismatch = compareFleetStates(ids, base.sessions, chaos.sessions)
	return out, nil
}

// fleetRunStates is one complete fleet run's per-session states and report.
type fleetRunStates struct {
	sessions map[string]fleetSessionState
	report   fleet.Report
}

// runFleetStates runs one enforced fleet to completion, capturing
// per-session decision state before each close.
func runFleetStates(opt FleetChaosOptions, dir string) (*fleetRunStates, error) {
	m, traces, err := openFleet(opt.FleetABOptions, true, dir, opt.Assignments)
	if err != nil {
		return nil, err
	}
	if err := streamAll(m, traces); err != nil {
		return nil, err
	}
	return captureAndClose(m, traces)
}

// streamAll round-robins every tenant's full trace into the fleet. Resumed
// sessions discard the consumed prefix (the daemon contract), so streaming
// from the beginning is also the chaos second life's recovery path.
func streamAll(m *fleet.Manager, traces map[string][]trace.Access) error {
	ids := sortedIDs(traces)
	const batch = 10_000
	for off := 0; ; off += batch {
		sent := false
		for _, id := range ids {
			tr := traces[id]
			if off >= len(tr) {
				continue
			}
			end := off + batch
			if end > len(tr) {
				end = len(tr)
			}
			if err := m.Submit(id, tr[off:end]); err != nil {
				return err
			}
			sent = true
		}
		if !sent {
			return nil
		}
	}
}

// captureAndClose closes every session, capturing its decision state first,
// then shuts the fleet down.
func captureAndClose(m *fleet.Manager, traces map[string][]trace.Access) (*fleetRunStates, error) {
	ids := sortedIDs(traces)
	states := map[string]fleetSessionState{}
	for _, id := range ids {
		d, err := m.Session(id)
		if err != nil {
			return nil, err
		}
		b, err := m.Budget(id)
		if err != nil {
			return nil, err
		}
		if err := m.CloseSession(id); err != nil {
			return nil, err
		}
		states[id] = fleetSessionState{
			log:      d.Events(),
			consumed: d.Consumed(),
			settled:  d.Settled(),
			budget:   b,
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return &fleetRunStates{sessions: states, report: m.Report()}, nil
}

// compareFleetStates diffs two runs' per-session states, naming the first
// divergence.
func compareFleetStates(ids []string, base, chaos map[string]fleetSessionState) (bool, string) {
	for _, id := range ids {
		b, c := base[id], chaos[id]
		if b.budget != c.budget {
			return false, fmt.Sprintf("%s: budget %d vs baseline %d", id, c.budget, b.budget)
		}
		if b.consumed != c.consumed {
			return false, fmt.Sprintf("%s: consumed %d vs baseline %d", id, c.consumed, b.consumed)
		}
		if !reflect.DeepEqual(b.settled, c.settled) {
			return false, fmt.Sprintf("%s: settled %+v vs baseline %+v", id, c.settled, b.settled)
		}
		if !reflect.DeepEqual(b.log, c.log) {
			n := len(b.log)
			if len(c.log) < n {
				n = len(c.log)
			}
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(b.log[i], c.log[i]) {
					return false, fmt.Sprintf("%s: decision log diverges at %d: %+v vs baseline %+v", id, i, c.log[i], b.log[i])
				}
			}
			return false, fmt.Sprintf("%s: decision log length %d vs baseline %d", id, len(c.log), len(b.log))
		}
	}
	return true, ""
}
