package daemon

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/energy"
	"selftune/internal/fastsim"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/session.golden with current outputs")

// goldenRun is one pinned Session run: a stream, the session options, and a
// name for the golden's section header.
type goldenRun struct {
	name string
	opts Options
	accs []trace.Access
}

// glitchMeter is a stateless counter-readout fault: any 4 KB window whose
// hit count is divisible by three reads as all-zero, which the search
// rejects as implausible and re-measures. It is a pure function of the
// configuration and counters, so a resumed or re-batched session reads what
// the original would have.
func glitchMeter(cfg cache.Config, st cache.Stats) cache.Stats {
	if cfg.SizeBytes == 4096 && st.Hits%3 == 0 {
		return cache.Stats{}
	}
	return st
}

func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	gen := func(name string, n int) []trace.Access {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("profile %q missing", name)
		}
		return prof.Generate(n)
	}
	// The phased stream switches program every 100k accesses, so the
	// settled miss rate drifts and the session re-tunes.
	var phased []trace.Access
	for _, name := range []string{"binary", "jpeg", "tv"} {
		phased = append(phased, gen(name, 100_000)...)
	}
	return []goldenRun{
		{"stationary binary, window 2000", Options{Window: 2_000}, gen("binary", 300_000)},
		{"phased binary/jpeg/tv, window 2000", Options{Window: 2_000}, phased},
		{"glitch-metered blit, window 2000", Options{Window: 2_000, Meter: glitchMeter}, gen("blit", 300_000)},
	}
}

// renderSession replays accs through a fresh Session one access at a time
// and renders what an observer of the session can see: the checkpoint
// encoding of every boundary snapshot (hashed), the decision log, the
// settled outcome and the final counters.
func renderSession(t *testing.T, r goldenRun) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "run %s: %d accesses\n", r.name, len(r.accs))
	s := NewSession(r.opts)
	for _, a := range r.accs {
		boundary, err := s.Step(a.Addr, a.IsWrite())
		if err != nil {
			t.Fatalf("%s: step %d: %v", r.name, s.Consumed(), err)
		}
		if !boundary {
			continue
		}
		enc, err := checkpoint.Encode(s.Pending())
		if err != nil {
			t.Fatalf("%s: encode at %d: %v", r.name, s.Consumed(), err)
		}
		fmt.Fprintf(&b, "boundary %d %x\n", s.Consumed(), sha256.Sum256(enc))
	}
	for _, e := range s.Events() {
		fmt.Fprintf(&b, "event at=%d kind=%s cfg=%v energy=%v budget=%d\n", e.At, e.Kind, e.Cfg, e.Energy, e.Budget)
	}
	if out := s.Settled(); out != nil {
		fmt.Fprintf(&b, "settled cfg=%v energy=%v degraded=%v settle_wb=%d at=%d\n", out.Cfg, out.Energy, out.Degraded, out.SettleWB, out.At)
	} else {
		b.WriteString("settled none\n")
	}
	fmt.Fprintf(&b, "final consumed=%d windows=%d retunes=%d config=%v stats=%+v\n",
		s.Consumed(), s.Windows(), s.Retunes(), s.Config(), s.Stats())
	return b.String()
}

// TestSessionGolden pins the live serving path against a golden recorded
// with the reference cache.Configurable simulator: three Session runs (a
// stationary profile, a phased stream that drifts and re-tunes, and a
// stateless glitch meter that forces re-measures) must reproduce every
// boundary snapshot's checkpoint bytes, the decision log and the settled
// outcomes exactly. Regenerate only for an intended behaviour change:
//
//	go test ./internal/daemon -run TestSessionGolden -update
func TestSessionGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range goldenRuns(t) {
		got.WriteString(renderSession(t, r))
	}
	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("session golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("session golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// sessionTrace is everything observable about one Session run: each
// boundary's position and checkpoint bytes (hashed), the telemetry log, and
// the final decision log, outcome and counters.
type sessionTrace struct {
	boundaries []string
	log        string
	final      string
}

// traceSession replays accs through a fresh Session with telemetry on. chunk
// 0 steps one access at a time with Step; otherwise accs are offered to
// StepBatch in blocks of chunk accesses, each block looped until consumed.
func traceSession(t *testing.T, opts Options, accs []trace.Access, chunk int) sessionTrace {
	t.Helper()
	var log bytes.Buffer
	opts.Rec = obs.NewJSONL(&log)
	s := NewSession(opts)
	var out sessionTrace
	noteBoundary := func() {
		enc, err := checkpoint.Encode(s.Pending())
		if err != nil {
			t.Fatalf("encode at %d: %v", s.Consumed(), err)
		}
		out.boundaries = append(out.boundaries, fmt.Sprintf("%d %x", s.Consumed(), sha256.Sum256(enc)))
	}
	if chunk == 0 {
		for _, a := range accs {
			boundary, err := s.Step(a.Addr, a.IsWrite())
			if err != nil {
				t.Fatal(err)
			}
			if boundary {
				noteBoundary()
			}
		}
	} else {
		for off := 0; off < len(accs); off += chunk {
			block := accs[off:min(off+chunk, len(accs))]
			for len(block) > 0 {
				n, boundary, err := s.StepBatch(block)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatalf("StepBatch consumed nothing at %d", s.Consumed())
				}
				block = block[n:]
				if boundary {
					noteBoundary()
				} else if len(block) > 0 {
					t.Fatalf("StepBatch stopped at %d without a boundary", s.Consumed())
				}
			}
		}
	}
	res, ok := s.LastResult()
	out.log = log.String()
	out.final = fmt.Sprintf("events=%+v dropped=%d settled=%+v consumed=%d windows=%d retunes=%d tuning=%v config=%v stats=%+v at_boundary=%v last=%v/%+v",
		s.Events(), s.EventsDropped(), s.Settled(), s.Consumed(), s.Windows(), s.Retunes(), s.Tuning(), s.Config(), s.Stats(), s.AtBoundary(), ok, res)
	return out
}

// TestStepBatchMatchesStep: stepping a session in blocks of any size — one
// access, odd sizes, just under and just over a window, the fleet's
// 4096-access frames — produces the boundary snapshots, telemetry and final
// state of per-access Step, including a run whose watchdog fires.
func TestStepBatchMatchesStep(t *testing.T) {
	runs := goldenRuns(t)
	runs = append(runs, goldenRun{"watchdog binary, window 2000", Options{Window: 2_000, WatchdogWindows: 3}, runs[0].accs})
	for _, r := range runs {
		if testing.Short() {
			r.accs = r.accs[:120_000]
		}
		want := traceSession(t, r.opts, r.accs, 0)
		if len(want.boundaries) == 0 {
			t.Fatalf("%s: no boundaries", r.name)
		}
		if r.opts.WatchdogWindows != 0 && !strings.Contains(want.final, "watchdog") {
			t.Fatalf("%s: the watchdog never fired", r.name)
		}
		w := int(r.opts.Window)
		for _, chunk := range []int{1, 7, w - 1, w + 1, 4096} {
			got := traceSession(t, r.opts, r.accs, chunk)
			if !reflect.DeepEqual(got.boundaries, want.boundaries) {
				t.Errorf("%s, chunk %d: %d boundaries, want %d (first difference at %d)", r.name, chunk,
					len(got.boundaries), len(want.boundaries), firstDiff(got.boundaries, want.boundaries))
			}
			if got.log != want.log {
				t.Errorf("%s, chunk %d: telemetry log differs from per-access Step", r.name, chunk)
			}
			if got.final != want.final {
				t.Errorf("%s, chunk %d: final state\n got %s\nwant %s", r.name, chunk, got.final, want.final)
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestOnlineReplayMatchesAccess: a tuning session fed in blocks through
// Online.Replay settles, snapshots and images exactly like one fed per
// access through Online.Access — on the reference cache.Configurable and on
// the live fastsim.Kernel alike, and identically across the two.
func TestOnlineReplayMatchesAccess(t *testing.T) {
	accs := goldenRuns(t)[0].accs[:200_000]
	// Both cache types also snapshot their contents.
	type imagingCache interface {
		tuner.LiveCache
		Image() (cache.Image, error)
	}
	caches := map[string]func() imagingCache{
		"configurable": func() imagingCache { return cache.MustConfigurable(cache.MinConfig()) },
		"kernel": func() imagingCache {
			k, err := fastsim.New(cache.MinConfig())
			if err != nil {
				t.Fatal(err)
			}
			return k
		},
	}
	render := func(newCache func() imagingCache, chunk int) string {
		var log bytes.Buffer
		c := newCache()
		o := tuner.NewOnline(c, energy.DefaultParams(), tuner.OnlineOptions{Window: 2_000, Meter: glitchMeter, Rec: obs.NewJSONL(&log)})
		if chunk == 0 {
			for _, a := range accs {
				o.Access(a.Addr, a.IsWrite())
			}
		} else {
			for off := 0; off < len(accs); off += chunk {
				block := accs[off:min(off+chunk, len(accs))]
				for len(block) > 0 {
					block = block[o.Replay(block):]
				}
			}
		}
		if !o.Done() {
			t.Fatal("session did not settle")
		}
		st, err := o.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		img, err := c.Image()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("result=%+v settle_wb=%d state=%+v image=%+v log=%s", o.Result(), o.SettleWritebacks(), st, img, log.String())
	}
	want := render(caches["configurable"], 0)
	for name, newCache := range caches {
		for _, chunk := range []int{0, 1, 7, 1_999, 2_001, 4096} {
			if got := render(newCache, chunk); got != want {
				t.Errorf("%s, chunk %d: session differs from per-access Online.Access on the reference cache", name, chunk)
			}
		}
	}
}

// TestServingKernelNamesTheSessionCache: /statusz's kernel field names the
// type a Session actually serves through.
func TestServingKernelNamesTheSessionCache(t *testing.T) {
	if got := fmt.Sprintf("%T", NewSession(Options{}).cache); got != "*"+ServingKernel {
		t.Fatalf("session serves through %s, ServingKernel says %s", got, ServingKernel)
	}
}
