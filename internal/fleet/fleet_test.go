package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/fleet/allocator"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// genTrace renders n accesses of the named workload.
func genTrace(t *testing.T, name string, n int) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return prof.Generate(n)
}

func TestFleetRunsSessionsToSettle(t *testing.T) {
	m, err := New(Options{
		Shards:  2,
		Dir:     t.TempDir(),
		Session: daemon.Options{Window: 1_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"crc", "bilv", "bcnt"}
	for _, n := range names {
		if err := m.Open("wl-" + n); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave batches across sessions, exercising cross-session FIFO.
	traces := map[string][]trace.Access{}
	for _, n := range names {
		traces[n] = genTrace(t, n, 150_000)
	}
	const batch = 10_000
	for off := 0; off < 150_000; off += batch {
		for _, n := range names {
			tr := traces[n]
			end := off + batch
			if end > len(tr) {
				end = len(tr)
			}
			if off >= end {
				continue
			}
			if err := m.Submit("wl-"+n, tr[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range names {
		d, err := m.Session("wl-" + n)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CloseSession("wl-" + n); err != nil {
			t.Fatal(err)
		}
		if d.Consumed() != uint64(len(traces[n])) {
			t.Fatalf("%s consumed %d of %d accesses", n, d.Consumed(), len(traces[n]))
		}
		if d.Settled() == nil {
			t.Fatalf("%s never settled in %d accesses", n, len(traces[n]))
		}
	}
	if got := m.Sessions(); len(got) != 0 {
		t.Fatalf("sessions still live after close: %v", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Each session's checkpoints live in its own namespaced store.
	fs, err := checkpoint.OpenFleetStore(m.opts.Dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Sessions(); err != nil || len(got) != 3 {
		t.Fatalf("tree lists %v (%v), want 3 sessions", got, err)
	}
	for _, n := range names {
		st, err := fs.Session("wl-" + n)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatalf("%s has no persisted checkpoint", n)
		}
		// The final persist covers the last boundary; the mid-window tail
		// (under one window of accesses) is replayed on resume.
		if total := uint64(len(traces[n])); snap.Consumed > total || total-snap.Consumed >= 1_000 {
			t.Fatalf("%s final checkpoint covers %d of %d accesses", n, snap.Consumed, total)
		}
	}
}

func TestFleetResume(t *testing.T) {
	dir := t.TempDir()
	accs := genTrace(t, "crc", 120_000)
	opts := Options{Shards: 2, Dir: dir, Session: daemon.Options{Window: 1_000}}

	m1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Open("s"); err != nil {
		t.Fatal(err)
	}
	if err := m1.Submit("s", accs[:60_000]); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Open("s"); err != nil {
		t.Fatal(err)
	}
	d, err := m2.Session("s")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovered() {
		t.Fatal("session did not resume from the fleet store")
	}
	if d.Consumed() == 0 || d.Consumed() > 60_000 {
		t.Fatalf("resumed at %d accesses, want a boundary in (0, 60000]", d.Consumed())
	}
	// Clients re-stream from the beginning; the consumed prefix is
	// silently discarded (daemon.Run's contract, ported to Submit).
	if err := m2.Submit("s", accs); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Consumed() != uint64(len(accs)) {
		t.Fatalf("consumed %d of %d after resume", d.Consumed(), len(accs))
	}
}

func TestShedModeDropsAndCounts(t *testing.T) {
	m, err := New(Options{Shards: 1, QueueDepth: 1_000, Shed: true, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Open("s"); err != nil {
		t.Fatal(err)
	}
	// A batch larger than the queue depth is always shed, regardless of
	// worker progress — deterministic for the test.
	big := genTrace(t, "crc", 2_000)
	if err := m.Submit("s", big); err != nil {
		t.Fatal(err)
	}
	shed, err := m.Shed("s")
	if err != nil {
		t.Fatal(err)
	}
	if shed != uint64(len(big)) {
		t.Fatalf("shed %d accesses, want %d", shed, len(big))
	}
	// Small batches still flow.
	if err := m.Submit("s", big[:500]); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
}

func TestFleetErrors(t *testing.T) {
	m, err := New(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Open(""); err == nil {
		t.Fatal("empty session id accepted")
	}
	if err := m.Submit("ghost", nil); err == nil {
		t.Fatal("submit to unknown session accepted")
	}
	if err := m.CloseSession("ghost"); err == nil {
		t.Fatal("close of unknown session accepted")
	}
	if err := m.Open("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("s"); err == nil {
		t.Fatal("duplicate open accepted")
	}
	if err := m.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession("s"); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestFleetMetricsLabelled(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Options{Shards: 2, Reg: reg, Session: daemon.Options{Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := m.Open(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(id, genTrace(t, "crc", 2_000)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fleet_sessions 3") {
		t.Fatalf("fleet_sessions gauge missing:\n%s", b.String())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		want := fmt.Sprintf(`fleet_session_consumed{session=%q} 2000`, id)
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %s in:\n%s", want, b.String())
		}
	}
}

func TestAllocatorRunsOnSettle(t *testing.T) {
	m, err := New(Options{
		Shards:           2,
		Session:          daemon.Options{Window: 1_000},
		AllocBudgetBytes: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, n := range []string{"crc", "fir"} {
		if err := m.Open(n); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(n, genTrace(t, n, 150_000)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"crc", "fir"} {
		if err := m.Quiesce(n); err != nil {
			t.Fatal(err)
		}
	}
	plan := m.Plan()
	if plan == nil {
		t.Fatal("no allocation plan despite settled sessions")
	}
	if len(plan.Assignments) != 2 {
		t.Fatalf("plan covers %d sessions, want 2: %+v", len(plan.Assignments), plan)
	}
	if plan.AssignedBytes > plan.TotalBytes {
		t.Fatalf("plan overspends: %+v", plan)
	}
	for _, a := range plan.Assignments {
		if a.Bytes <= 0 {
			t.Fatalf("session %s assigned %d bytes", a.ID, a.Bytes)
		}
	}
	// A plan exists from the first open; the settles must have replaced the
	// equal shares with DP over both sessions' measured curves.
	m.allocMu.Lock()
	crc, okCRC := m.profiles["crc"]
	fir, okFIR := m.profiles["fir"]
	m.allocMu.Unlock()
	if !okCRC || !okFIR {
		t.Fatalf("settled sessions left no profiles (crc %v, fir %v)", okCRC, okFIR)
	}
	want, err := allocator.DP(16384, cache.BankBytes, []allocator.Profile{crc, fir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Assignments, want.Assignments) {
		t.Fatalf("plan %+v, want DP over the settled profiles %+v", plan.Assignments, want.Assignments)
	}
}

// TestPlanIsTheEnforcedPlan runs one tenant to its settle and closes it,
// then does the same with a second, in an advisory and in an enforced
// fleet. After each settle the plan must name exactly the live sessions —
// never a closed one — and, under enforcement, assign each the budget it
// actually runs under: there is one plan, and it is the one enforced.
func TestPlanIsTheEnforcedPlan(t *testing.T) {
	for _, enforce := range []bool{false, true} {
		m, err := New(Options{
			Shards:           2,
			Session:          daemon.Options{Window: 1_000},
			AllocBudgetBytes: 16384,
			EnforceBudget:    enforce,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"crc", "fir"} {
			if err := m.Open(id); err != nil {
				t.Fatal(err)
			}
			if err := m.Submit(id, genTrace(t, id, 300_000)); err != nil {
				t.Fatal(err)
			}
			if err := m.Quiesce(id); err != nil {
				t.Fatal(err)
			}
			d, err := m.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			if d.Settled() == nil {
				t.Fatalf("enforce=%v: %s never settled", enforce, id)
			}
			plan := m.Plan()
			if plan == nil || len(plan.Assignments) != 1 || plan.Assignments[0].ID != id {
				t.Fatalf("enforce=%v: after %s settled, plan = %+v, want exactly the live session %s", enforce, id, plan, id)
			}
			if enforce {
				for _, a := range plan.Assignments {
					if b, err := m.Budget(a.ID); err != nil || b != a.Bytes {
						t.Fatalf("plan assigns %s %d B, but it runs under Budget() = %d, %v", a.ID, a.Bytes, b, err)
					}
				}
			}
			if err := m.CloseSession(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardAssignmentDeterministic(t *testing.T) {
	for _, id := range []string{"a", "b", "session-42", "x/y"} {
		for _, n := range []int{1, 2, 4, 8} {
			got := shardOf(id, n)
			if got != shardOf(id, n) {
				t.Fatalf("shardOf(%q, %d) unstable", id, n)
			}
			if got < 0 || got >= n {
				t.Fatalf("shardOf(%q, %d) = %d out of range", id, n, got)
			}
		}
	}
}
