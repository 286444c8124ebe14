package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// soloRun is the reference: one session run the single-tenant way, via
// daemon.New + Step + Close against its own checkpoint directory.
type soloRun struct {
	events    []obs.RawEvent
	log       []checkpoint.Event
	consumed  uint64
	settled   *checkpoint.Outcome
	ckptFiles map[string][]byte // name → bytes
}

// readCkptDir snapshots a checkpoint directory's .stck files.
func readCkptDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".stck") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestFleetBitIdenticalToSoloRuns is the house invariant: a fleet of M
// sessions produces per-session decisions, telemetry and checkpoints
// bit-identical to M independent single-daemon runs, at any shard count.
// Sharding and queueing are pure transport — they must not reorder, drop,
// or duplicate a session's accesses, and the sid-stamped recorder must keep
// each session's event stream exactly what a solo run would have written.
func TestFleetBitIdenticalToSoloRuns(t *testing.T) {
	const window = 1_000
	const accesses = 100_000
	workloads := map[string]string{
		"s-crc":    "crc",
		"s-bilv":   "bilv",
		"s-bcnt":   "bcnt",
		"s-padpcm": "padpcm",
		"s-binary": "binary",
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
		d, err := daemon.New(daemon.Options{Window: window, Dir: dir, Rec: obs.NewJSONL(&buf)})
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
		solo[id] = &soloRun{
			events:    evs,
			log:       d.Events(),
			consumed:  d.Consumed(),
			settled:   d.Settled(),
			ckptFiles: readCkptDir(t, dir),
		}
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("fleet-%d", shards))
			var buf bytes.Buffer
			m, err := New(Options{
				Shards:  shards,
				Dir:     dir,
				Rec:     obs.NewJSONL(&buf),
				Session: daemon.Options{Window: window},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if err := m.Open(id); err != nil {
					t.Fatal(err)
				}
			}
			// Round-robin batches at an awkward size, so batches never
			// line up with window or checkpoint boundaries.
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
			// Capture per-session daemon state before Close releases it.
			type state struct {
				log      []checkpoint.Event
				consumed uint64
				settled  *checkpoint.Outcome
			}
			states := map[string]state{}
			for _, id := range ids {
				d, err := m.Session(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CloseSession(id); err != nil { // flushes the queue first
					t.Fatal(err)
				}
				states[id] = state{log: d.Events(), consumed: d.Consumed(), settled: d.Settled()}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

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

			// Telemetry: grouping the fleet log by sid and erasing the
			// stamp must reproduce each solo log exactly; everything
			// without an sid must be fleet-level.
			evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			perSID := map[string][]obs.RawEvent{}
			for _, ev := range evs {
				sid := ev.Str("sid")
				if sid == "" {
					if !strings.HasPrefix(ev.Name, "fleet.") {
						t.Fatalf("non-fleet event %q carries no sid", ev.Name)
					}
					continue
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

			// Checkpoints: same generations, byte for byte.
			fs, err := checkpoint.OpenFleetStore(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				got := readCkptDir(t, fs.SessionDir(id))
				if !reflect.DeepEqual(got, solo[id].ckptFiles) {
					gn := make([]string, 0, len(got))
					for n := range got {
						gn = append(gn, n)
					}
					wn := make([]string, 0, len(solo[id].ckptFiles))
					for n := range solo[id].ckptFiles {
						wn = append(wn, n)
					}
					t.Errorf("%s: checkpoint files diverged from the solo run (fleet %v, solo %v)", id, gn, wn)
				}
			}
		})
	}
}
