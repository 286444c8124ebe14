package report

import (
	"bytes"
	"strings"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/daemon"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// record drives one online tuning session and returns its telemetry log.
func record(t *testing.T) (*tuner.Online, []byte) {
	t.Helper()
	prof, ok := workload.ByName("jpeg")
	if !ok {
		t.Fatal("jpeg workload missing")
	}
	_, accs := trace.Split(trace.NewSliceSource(prof.Generate(400_000)))
	var log bytes.Buffer
	c := cache.MustConfigurable(cache.MinConfig())
	o := tuner.NewOnline(c, energy.DefaultParams(), tuner.OnlineOptions{Window: 2_000, Rec: obs.NewJSONL(&log)})
	for _, a := range accs {
		o.Access(a.Addr, a.IsWrite())
		if o.Done() {
			break
		}
	}
	if !o.Done() {
		t.Fatal("session never settled")
	}
	return o, log.Bytes()
}

func TestExplainReassemblesTrajectory(t *testing.T) {
	o, log := record(t)
	evs, err := obs.ReadEvents(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	story := Explain(evs)

	if len(story.Sessions) != 1 {
		t.Fatalf("story has %d sessions, want 1", len(story.Sessions))
	}
	ss := story.Sessions[0]
	if !ss.Settled || ss.Best != o.Result().Best.Cfg.String() {
		t.Fatalf("story settled=%v on %q, session settled on %v", ss.Settled, ss.Best, o.Result().Best.Cfg)
	}
	if ss.Examined != o.Result().NumExamined() || len(ss.Steps) < ss.Examined {
		t.Fatalf("story examined %d over %d steps, session examined %d",
			ss.Examined, len(ss.Steps), o.Result().NumExamined())
	}
	if got := story.MaxExamined(); got > 8 {
		t.Fatalf("MaxExamined = %d, the heuristic's structural maximum is 8", got)
	}
	if story.Steps() != len(ss.Steps) {
		t.Fatalf("Steps() = %d, session has %d", story.Steps(), len(ss.Steps))
	}
	if ss.Steps[0].Phase != "initial" {
		t.Fatalf("first step phase %q, want initial", ss.Steps[0].Phase)
	}

	out := story.String()
	for _, want := range []string{"session 0", ss.Best, "initial", "stop: no improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered story lacks %q:\n%s", want, out)
		}
	}
}

// A log with every event recorded twice (the kill/resume shape) must explain
// to the identical story, with the duplicates counted.
func TestExplainDeduplicatesReplayedEvents(t *testing.T) {
	_, log := record(t)
	once, err := obs.ReadEvents(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := obs.ReadEvents(bytes.NewReader(append(append([]byte{}, log...), log...)))
	if err != nil {
		t.Fatal(err)
	}

	a, b := Explain(once), Explain(twice)
	if b.Duplicates != len(once) {
		t.Fatalf("Duplicates = %d, want %d", b.Duplicates, len(once))
	}
	b.Duplicates = a.Duplicates
	if a.String() != b.String() {
		t.Fatalf("duplicated log explains differently:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestExplainBudgetConstrainedRetune drives a real daemon through a budget
// cut and asserts the story renders the constrained re-search: the budget
// note, the budget-reasoned re-tune note, the new session's header carrying
// its allocation, and MaxExamined counting the constrained session's search
// like any other (so -max-examined gates it too).
func TestExplainBudgetConstrainedRetune(t *testing.T) {
	var log bytes.Buffer
	d, err := daemon.New(daemon.Options{Window: 500, Rec: obs.NewJSONL(&log)})
	if err != nil {
		t.Fatal(err)
	}
	// An 8 KiB-footprint strided pattern settles on the 8K tier
	// unconstrained, so a 2048 B budget binds and forces a re-search.
	feed := func(until uint64) {
		for d.Consumed() < until {
			i := d.Consumed()
			if err := d.Step(uint32(i*16%8192), i%7 == 0); err != nil {
				t.Fatalf("Step at %d: %v", i, err)
			}
		}
	}
	settle := func() {
		cap := d.Consumed() + 200_000
		for d.Tuning() && d.Consumed() < cap {
			feed(d.Consumed() + 1)
		}
		if d.Settled() == nil {
			t.Fatalf("no settle after %d accesses", d.Consumed())
		}
	}
	settle()
	d.SetBudget(2048)
	settle()

	evs, err := obs.ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	story := Explain(evs)
	if len(story.Sessions) < 2 {
		t.Fatalf("story has %d sessions, want the original plus the constrained re-search", len(story.Sessions))
	}
	first, last := story.Sessions[0], story.Sessions[len(story.Sessions)-1]
	if first.Budget != 0 {
		t.Fatalf("pre-budget session carries budget %d", first.Budget)
	}
	if last.Budget != 2048 || last.BudgetExcluded <= 0 {
		t.Fatalf("constrained session = %+v, want budget 2048 with excluded configurations", last)
	}
	if !last.Settled || last.Examined == 0 {
		t.Fatalf("constrained session never settled: %+v", last)
	}
	if story.MaxExamined() < last.Examined {
		t.Fatalf("MaxExamined = %d does not count the constrained re-search's %d",
			story.MaxExamined(), last.Examined)
	}
	notes := strings.Join(story.Notes, "\n")
	for _, want := range []string{
		"budget set to 2048 B",
		"configurations excluded",
		"within the 2048 B budget",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes lack %q:\n%s", want, notes)
		}
	}
	out := story.String()
	if !strings.Contains(out, "(budget 2048 B") {
		t.Errorf("rendered story lacks the constrained session header:\n%s", out)
	}
}

// TestExplainFleetRealloc pins the fleet.realloc narration: a reallocation
// event (as left in a per-session log by obs.FilterSession) becomes a note
// naming both allocations, distinct reallocations are not deduplicated
// against each other, and a replayed copy of the same reallocation is.
func TestExplainFleetRealloc(t *testing.T) {
	realloc := func(budget, prev float64) obs.RawEvent {
		return obs.RawEvent{
			Name:   "fleet.realloc",
			Fields: map[string]any{"budget_bytes": budget, "prev_bytes": prev},
		}
	}
	story := Explain([]obs.RawEvent{
		realloc(4096, 8192),
		realloc(2048, 4096),
		realloc(4096, 8192), // kill/resume replay of the first
	})
	if len(story.Notes) != 2 || story.Duplicates != 1 {
		t.Fatalf("notes %v, duplicates %d; want 2 distinct reallocations and 1 duplicate",
			story.Notes, story.Duplicates)
	}
	if !strings.Contains(story.Notes[0], "budget 4096 B (was 8192 B)") {
		t.Fatalf("realloc note = %q", story.Notes[0])
	}
}

func TestExplainEmptyLog(t *testing.T) {
	story := Explain(nil)
	if story.Steps() != 0 || story.MaxExamined() != 0 || len(story.Sessions) != 0 {
		t.Fatalf("empty log explained to %+v", story)
	}
}
