package tuner

import (
	"bytes"
	"fmt"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func obsStream(t *testing.T, n int) []trace.Access {
	t.Helper()
	prof, ok := workload.ByName("jpeg")
	if !ok {
		prof = workload.Profiles()[0]
	}
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(n)))
	if len(data) == 0 {
		t.Fatal("no data stream")
	}
	return data
}

// The trace hook observes; it must not steer. A traced search returns the
// same result as an untraced one, and the step stream is exactly the
// heuristic's decision sequence: contiguous ordinals, initial measurement
// first, a stop step closing every sweep that ended on a worse reading.
func TestSearchTracedObservesWithoutSteering(t *testing.T) {
	data := obsStream(t, 60_000)
	p := energy.DefaultParams()

	plain := SearchPaper(NewTraceEvaluator(data, p))
	var steps []SearchStep
	traced := SearchTraced(NewTraceEvaluator(data, p), PaperOrder, DefaultSpace(), func(st SearchStep) {
		steps = append(steps, st)
	})

	if plain.Best.Cfg != traced.Best.Cfg || plain.Best.Energy != traced.Best.Energy {
		t.Fatalf("tracing changed the result: %v vs %v", plain.Best, traced.Best)
	}
	if plain.NumExamined() != traced.NumExamined() {
		t.Fatalf("tracing changed examined count: %d vs %d", plain.NumExamined(), traced.NumExamined())
	}
	if len(steps) == 0 {
		t.Fatal("no steps traced")
	}
	if steps[0].Phase != ParamInitial || steps[0].Cfg != cache.MinConfig() {
		t.Fatalf("first step is not the initial measurement: %+v", steps[0])
	}
	unique := map[cache.Config]bool{}
	for i, st := range steps {
		if st.Step != i {
			t.Fatalf("step ordinals not contiguous: step %d at index %d", st.Step, i)
		}
		unique[st.Cfg] = true
		if st.Improved && st.Stop {
			t.Fatalf("step %d both improved and stopped: %+v", i, st)
		}
	}
	if len(unique) != traced.NumExamined() {
		t.Fatalf("steps cover %d unique configs, Examined has %d", len(unique), traced.NumExamined())
	}
	// The paper's claim: the heuristic examines a small fraction of the
	// 27-configuration space (5-7 in Fig. 6; 8 is the structural maximum).
	if n := traced.NumExamined(); n > 8 {
		t.Fatalf("heuristic examined %d configurations, structural maximum is 8", n)
	}
}

// runObserved drives a full online session over accs and returns the settled
// session plus its recorded JSONL bytes.
func runObserved(t *testing.T, accs []trace.Access, window uint64, rec obs.Recorder) *Online {
	t.Helper()
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), OnlineOptions{Window: window, Rec: rec})
	for _, a := range accs {
		o.Access(a.Addr, a.IsWrite())
		if o.Done() {
			break
		}
	}
	if !o.Done() {
		t.Fatal("stream too short: session never settled")
	}
	return o
}

// An observed online session must settle identically to an unobserved one,
// and two observed runs must produce byte-identical event logs.
func TestOnlineObservedInertAndDeterministic(t *testing.T) {
	accs := obsStream(t, 400_000)
	const window = 2_000

	silent := runObserved(t, accs, window, nil)
	var logA, logB bytes.Buffer
	loudA := runObserved(t, accs, window, obs.NewJSONL(&logA))
	runObserved(t, accs, window, obs.NewJSONL(&logB))

	if silent.Result().Best.Cfg != loudA.Result().Best.Cfg ||
		silent.Result().Best.Energy != loudA.Result().Best.Energy {
		t.Fatalf("recording changed the settled outcome: %v vs %v",
			silent.Result().Best, loudA.Result().Best)
	}
	if logA.String() != logB.String() {
		t.Fatalf("two identical observed runs produced different logs:\n%s\nvs\n%s", logA.String(), logB.String())
	}

	evs, err := obs.ReadEvents(&logA)
	if err != nil {
		t.Fatal(err)
	}
	var stepEvents, settleEvents int
	for _, ev := range evs {
		switch ev.Name {
		case "tuner.step":
			stepEvents++
		case "tuner.settle":
			settleEvents++
			if ev.Config != loudA.Result().Best.Cfg.String() {
				t.Fatalf("settle event config %q, session settled on %v", ev.Config, loudA.Result().Best.Cfg)
			}
			if int(ev.Float("examined")) != loudA.Result().NumExamined() {
				t.Fatalf("settle event examined %v, want %d", ev.Float("examined"), loudA.Result().NumExamined())
			}
		}
	}
	if stepEvents == 0 || settleEvents != 1 {
		t.Fatalf("got %d step and %d settle events", stepEvents, settleEvents)
	}
}

// A killed-and-resumed session must re-emit the replayed prefix's events
// with coordinates identical to the first life's, so deduplication by
// (session, window, step) reconstructs the uninterrupted log exactly.
func TestResumeReEmitsIdenticalStepEvents(t *testing.T) {
	accs := obsStream(t, 400_000)
	const window = 2_000
	p := energy.DefaultParams()

	var unbroken bytes.Buffer
	base := runObserved(t, accs, window, obs.NewJSONL(&unbroken))

	// Killed run: drive to the first boundary after two completed windows,
	// snapshot, rebuild from the image, resume, finish.
	var broken bytes.Buffer
	rec := obs.NewJSONL(&broken)
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, p, OnlineOptions{Window: window, Rec: rec})
	i := 0
	for ; ; i++ {
		o.Access(accs[i].Addr, accs[i].IsWrite())
		if o.CompletedWindows() >= 2 && o.AtWindowBoundary() {
			i++
			break
		}
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img, err := c.Image()
	if err != nil {
		t.Fatal(err)
	}

	c2, err := cache.RestoreConfigurable(img)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ResumeOnline(c2, p, snap, OnlineOptions{Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	for ; i < len(accs) && !o2.Done(); i++ {
		o2.Access(accs[i].Addr, accs[i].IsWrite())
	}
	if !o2.Done() {
		t.Fatal("resumed session never settled")
	}
	if o2.Result().Best.Cfg != base.Result().Best.Cfg {
		t.Fatalf("resumed session settled on %v, baseline on %v", o2.Result().Best.Cfg, base.Result().Best.Cfg)
	}

	key := func(e obs.RawEvent) string {
		return fmt.Sprintf("%s/%d/%d/%d/%s/%v/%v", e.Name, e.Session, e.Window, e.Step,
			e.Config, e.Float("energy"), e.Bool("stop"))
	}
	baseEvs, err := obs.ReadEvents(&unbroken)
	if err != nil {
		t.Fatal(err)
	}
	killEvs, err := obs.ReadEvents(&broken)
	if err != nil {
		t.Fatal(err)
	}
	// Dedupe the killed run's log by coordinates, preserving first-seen
	// order; re-emitted events must be identical so dedup loses nothing.
	seen := map[string]bool{}
	var dedup []string
	for _, e := range killEvs {
		k := key(e)
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, k)
		}
	}
	if len(dedup) != len(baseEvs) {
		t.Fatalf("deduped killed-run log has %d events, baseline %d", len(dedup), len(baseEvs))
	}
	for j, e := range baseEvs {
		if dedup[j] != key(e) {
			t.Fatalf("event %d diverged:\nbaseline %s\nresumed  %s", j, key(e), dedup[j])
		}
	}
}
