package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// TestFleetBudgetConstrainedBitIdenticalToSolo extends the house invariant
// into enforce mode: a fleet with pinned per-session budgets produces
// decisions, telemetry and checkpoints bit-identical to solo daemons given
// the same daemon.Options.BudgetBytes, at any shard count. Pinned
// assignments are the determinism-preserving subset of enforcement — a
// pinned session's constraint never depends on fleet composition or settle
// timing, so its decision sequence must match its solo twin exactly.
// (Dynamic reallocation, which deliberately couples sessions, is exercised
// by the experiments A/B harness instead.)
func TestFleetBudgetConstrainedBitIdenticalToSolo(t *testing.T) {
	const window = 1_000
	const accesses = 100_000
	workloads := map[string]string{
		"s-crc":    "crc",
		"s-bilv":   "bilv",
		"s-bcnt":   "bcnt",
		"s-padpcm": "padpcm",
		"s-binary": "binary",
	}
	// Assignments chosen so the constraint binds (the session settles on a
	// smaller configuration than its unconstrained run would) for four of
	// the five sessions, while every session still settles within the
	// stream — a budget tight enough to prevent settling leaves the session
	// perpetually re-tuning, which is legal but pins less.
	assign := map[string]int{
		"s-crc":    8192,
		"s-bilv":   4096,
		"s-bcnt":   2048,
		"s-padpcm": 4096,
		"s-binary": 2048,
	}
	budget := 0
	for _, b := range assign {
		budget += b
	}
	ids := make([]string, 0, len(workloads))
	traces := map[string][]trace.Access{}
	for id, wl := range workloads {
		ids = append(ids, id)
		traces[id] = genTrace(t, wl, accesses)
	}

	base := t.TempDir()
	solo := map[string]*soloRun{}
	for id := range workloads {
		dir := filepath.Join(base, "solo", id)
		var buf bytes.Buffer
		d, err := daemon.New(daemon.Options{
			Window:      window,
			Dir:         dir,
			Rec:         obs.NewJSONL(&buf),
			BudgetBytes: assign[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		// One access per call: the fleet's multi-access batches are
		// compared against per-access stepping.
		tr := traces[id]
		for i := range tr {
			if _, _, err := d.StepBatch(tr[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out := d.Settled(); out == nil || out.Cfg.SizeBytes > assign[id] {
			t.Fatalf("solo %s settled %+v outside its %d B budget", id, out, assign[id])
		}
		solo[id] = &soloRun{
			events:    evs,
			log:       d.Events(),
			consumed:  d.Consumed(),
			settled:   d.Settled(),
			ckptFiles: readCkptDir(t, dir),
		}
	}

	fleetOpts := func(dir string, shards int, rec obs.Recorder) Options {
		return Options{
			Shards:           shards,
			Dir:              dir,
			Rec:              rec,
			Session:          daemon.Options{Window: window},
			AllocBudgetBytes: budget,
			EnforceBudget:    true,
			Assignments:      assign,
		}
	}
	type state struct {
		log      []checkpoint.Event
		consumed uint64
		settled  *checkpoint.Outcome
	}
	compare := func(t *testing.T, dir string, states map[string]state) {
		t.Helper()
		for _, id := range ids {
			want := solo[id]
			got := states[id]
			if got.consumed != want.consumed {
				t.Errorf("%s: consumed %d, solo %d", id, got.consumed, want.consumed)
			}
			if !reflect.DeepEqual(got.settled, want.settled) {
				t.Errorf("%s: settled %+v, solo %+v", id, got.settled, want.settled)
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("%s: decision log diverged from the solo run", id)
			}
		}
		fs, err := checkpoint.OpenFleetStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got := readCkptDir(t, fs.SessionDir(id))
			if !reflect.DeepEqual(got, solo[id].ckptFiles) {
				t.Errorf("%s: checkpoint files diverged from the solo run", id)
			}
		}
		// The durable fleet state carries exactly the pinned assignments.
		st, err := fs.LoadState()
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || len(st.Pending) != 0 {
			t.Fatalf("fleet state = %+v, want assignments with an empty pending queue", st)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("fleet-%d", shards))
			var buf bytes.Buffer
			m, err := New(fleetOpts(dir, shards, obs.NewJSONL(&buf)))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if err := m.Open(id); err != nil {
					t.Fatal(err)
				}
				if b, err := m.Budget(id); err != nil || b != assign[id] {
					t.Fatalf("Budget(%q) = %d, %v; want the pinned %d", id, b, err, assign[id])
				}
			}
			const batch = 7_777
			for off := 0; off < accesses; off += batch {
				for _, id := range ids {
					tr := traces[id]
					end := off + batch
					if end > len(tr) {
						end = len(tr)
					}
					if off < end {
						if err := m.Submit(id, tr[off:end]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			states := map[string]state{}
			for _, id := range ids {
				d, err := m.Session(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CloseSession(id); err != nil {
					t.Fatal(err)
				}
				states[id] = state{log: d.Events(), consumed: d.Consumed(), settled: d.Settled()}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			compare(t, dir, states)

			// Telemetry: the sid-grouped fleet log must reproduce each solo
			// log; with every session pinned, enforcement must have produced
			// no reallocations at all.
			evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			perSID := map[string][]obs.RawEvent{}
			for _, ev := range evs {
				if strings.HasPrefix(ev.Name, "fleet.") {
					if ev.Name == "fleet.realloc" || ev.Name == "fleet.park" || ev.Name == "fleet.reject" {
						t.Errorf("pinned-assignment fleet produced %q: %+v", ev.Name, ev)
					}
					continue
				}
				sid := ev.Str("sid")
				if sid == "" {
					t.Fatalf("non-fleet event %q carries no sid", ev.Name)
				}
				delete(ev.Fields, "sid")
				perSID[sid] = append(perSID[sid], ev)
			}
			for _, id := range ids {
				if !reflect.DeepEqual(perSID[id], solo[id].events) {
					g, w := perSID[id], solo[id].events
					t.Errorf("%s: event log diverged from the solo run (%d vs %d events)", id, len(g), len(w))
					for i := 0; i < len(g) && i < len(w); i++ {
						if !reflect.DeepEqual(g[i], w[i]) {
							t.Errorf("%s: first divergence at event %d:\nfleet: %+v\nsolo:  %+v", id, i, g[i], w[i])
							break
						}
					}
				}
			}
		})
	}

	// Chaos leg: kill the enforced fleet mid-stream, reopen against the same
	// directory, re-stream from the beginning. Admission state, assignments
	// and the constrained settles must recover bit-identically — the
	// continuation matches solo runs that never died.
	t.Run("kill-resume", func(t *testing.T) {
		dir := filepath.Join(base, "fleet-chaos")
		m1, err := New(fleetOpts(dir, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := m1.Open(id); err != nil {
				t.Fatal(err)
			}
		}
		const batch = 7_777
		for off := 0; off < accesses/2; off += batch {
			for _, id := range ids {
				end := off + batch
				if end > accesses/2 {
					end = accesses / 2
				}
				if err := m1.Submit(id, traces[id][off:end]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Let the shard queues drain before the kill: Kill drops queued
		// work on the floor, and the recovery assertion below wants every
		// session past its first checkpoint boundary. The kill still lands
		// mid-stream — half the trace and the unpersisted tail (up to
		// CheckpointEvery boundaries) are lost and re-derived.
		for _, id := range ids {
			if err := m1.Quiesce(id); err != nil {
				t.Fatal(err)
			}
		}
		m1.Kill()

		m2, err := New(fleetOpts(dir, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := m2.Open(id); err != nil {
				t.Fatal(err)
			}
			d, err := m2.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Recovered() || d.Consumed() == 0 {
				t.Fatalf("%s did not recover from the fleet store (consumed %d)", id, d.Consumed())
			}
			if b, err := m2.Budget(id); err != nil || b != assign[id] {
				t.Fatalf("recovered Budget(%q) = %d, %v; want %d", id, b, err, assign[id])
			}
		}
		for off := 0; off < accesses; off += batch {
			for _, id := range ids {
				tr := traces[id]
				end := off + batch
				if end > len(tr) {
					end = len(tr)
				}
				if off < end {
					if err := m2.Submit(id, tr[off:end]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		states := map[string]state{}
		for _, id := range ids {
			d, err := m2.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := m2.CloseSession(id); err != nil {
				t.Fatal(err)
			}
			states[id] = state{log: d.Events(), consumed: d.Consumed(), settled: d.Settled()}
		}
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
		compare(t, dir, states)
	})
}
