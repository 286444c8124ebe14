// Command cachetune runs the self-tuning cache system on a workload — a
// named synthetic benchmark profile, a real mini-VM kernel, or a recorded
// trace file — and reports the configurations the on-chip tuner selects,
// the number of configurations examined, and the energy outcome versus the
// fixed base cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"selftune/internal/cache"
	"selftune/internal/core"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/programs"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachetune:", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "synthetic benchmark profile to run (see -list)")
	kernel := flag.String("kernel", "", "mini-VM kernel to run instead (see -list)")
	traceFile := flag.String("trace", "", "recorded trace file to replay instead")
	list := flag.Bool("list", false, "list available workloads and kernels")
	n := flag.Int("n", 600_000, "accesses to simulate (synthetic profiles)")
	window := flag.Uint64("window", 10_000, "accesses per tuner measurement window")
	mode := flag.String("mode", "once", "tuning mode: once, periodic or phase")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel replay workers for the -compare sweep")
	compare := flag.Bool("compare", false, "after the run, sweep all 27 configurations offline and compare the tuner's choices against the exhaustive optimum")
	lenient := flag.Bool("lenient", false, "skip malformed lines in -trace din files instead of failing")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	ofl := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("synthetic profiles (Powerstone/MediaBench models):")
		for _, p := range workload.Profiles() {
			fmt.Printf("  %-10s %s\n", p.Name, p.Description)
		}
		fmt.Println("mini-VM kernels (real programs on the MIPS-like core):")
		for _, k := range programs.All() {
			fmt.Printf("  %-10s %s\n", k.Name, k.Description)
		}
		return nil
	}

	src, limit, err := pickSource(ofl, *wl, *kernel, *traceFile, *n, *lenient)
	if err != nil {
		return err
	}

	opts := core.Options{Window: *window, Rec: ofl.Recorder(os.Stderr)}
	switch *mode {
	case "once":
		opts.Mode = core.TuneOnce
	case "periodic":
		opts.Mode = core.TunePeriodic
	case "phase":
		opts.Mode = core.TuneOnPhaseChange
	default:
		fmt.Fprintln(os.Stderr, "cachetune: unknown -mode", *mode)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		src = &deadlineSource{src: src, ctx: ctx}
	}
	if *compare {
		src = &recordingSource{src: src}
	}
	sys := core.New(opts)
	ran := sys.Run(src, limit)
	if ds := findDeadline(src); ds != nil && ds.tripped {
		return fmt.Errorf("timed out after %v (%d accesses replayed)", *timeout, ran)
	}
	fmt.Printf("ran %d accesses, mode=%s\n", ran, *mode)

	tb := report.NewTable("cache", "at", "chosen", "examined", "settle WB", "tuner nJ")
	for _, e := range sys.Events() {
		tb.Addf(e.Cache, e.At, e.Chosen.String(), e.Examined, e.SettleWritebacks, e.TunerEnergy*1e9)
	}
	fmt.Print(tb.String())

	r := sys.Report()
	p := opts.Params
	if p == nil {
		p = energy.DefaultParams()
	}
	base := cache.BaseConfig()
	iBase := p.Total(base, r.IStats)
	dBase := p.Total(base, r.DStats)
	fmt.Printf("\nI$ %v: %v (miss %.2f%%)  vs base %v: saves %s\n",
		sys.IConfig(), r.IBreak, 100*r.IStats.MissRate(), base, report.Pct(1-r.IBreak.Total()/iBase))
	fmt.Printf("D$ %v: %v (miss %.2f%%)  vs base %v: saves %s\n",
		sys.DConfig(), r.DBreak, 100*r.DStats.MissRate(), base, report.Pct(1-r.DBreak.Total()/dBase))
	fmt.Printf("tuner energy: %.2f nJ (%.6f%% of memory-access energy)\n",
		r.TunerEnergy*1e9, 100*r.TunerEnergy/(r.IBreak.Total()+r.DBreak.Total()))

	if rec, ok := src.(*recordingSource); ok {
		compareOffline(rec.accs, sys, p, *workers)
	}
	return nil
}

// recordingSource passes a stream through while keeping a copy, so the run
// can be replayed offline afterwards.
type recordingSource struct {
	src  trace.Source
	accs []trace.Access
}

func (r *recordingSource) Next() (trace.Access, bool) {
	a, ok := r.src.Next()
	if ok {
		r.accs = append(r.accs, a)
	}
	return a, ok
}

// deadlineSource ends the stream when the context expires, checking every
// 4096 accesses so the replay loop stays cheap. The tuner then sees a
// normal end of stream — no goroutine teardown, no partial state.
type deadlineSource struct {
	src     trace.Source
	ctx     context.Context
	n       int
	tripped bool
}

func (d *deadlineSource) Next() (trace.Access, bool) {
	if d.tripped {
		return trace.Access{}, false
	}
	d.n++
	if d.n&0xfff == 0 && d.ctx.Err() != nil {
		d.tripped = true
		return trace.Access{}, false
	}
	return d.src.Next()
}

// findDeadline unwraps the source chain back to the deadline wrapper.
func findDeadline(src trace.Source) *deadlineSource {
	for {
		switch s := src.(type) {
		case *deadlineSource:
			return s
		case *recordingSource:
			src = s.src
		default:
			return nil
		}
	}
}

// compareOffline sweeps all 27 configurations over the recorded instruction
// and data streams through the replay engine's worker pool and reports how
// far the online tuner's choices sit from the exhaustive optimum.
func compareOffline(accs []trace.Access, sys *core.System, p *energy.Params, workers int) {
	inst, data := trace.Split(trace.NewSliceSource(accs))
	fmt.Printf("\noffline exhaustive sweep of the recorded trace (%d configs, %d workers):\n",
		len(cache.AllConfigs()), workers)
	for _, s := range []struct {
		name   string
		accs   []trace.Access
		chosen cache.Config
	}{{"I$", inst, sys.IConfig()}, {"D$", data, sys.DConfig()}} {
		if len(s.accs) == 0 {
			fmt.Printf("%s: no recorded accesses\n", s.name)
			continue
		}
		ev := tuner.NewTraceEvaluator(s.accs, p)
		opt := tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), workers).Best
		online := ev.Evaluate(s.chosen)
		if s.chosen == opt.Cfg {
			fmt.Printf("%s: online choice %v IS the exhaustive optimum\n", s.name, s.chosen)
		} else {
			fmt.Printf("%s: online choice %v costs +%s vs optimum %v\n",
				s.name, s.chosen, report.Pct(online.Energy/opt.Energy-1), opt.Cfg)
		}
	}
}

func pickSource(ofl *obs.Flags, wl, kernel, traceFile string, n int, lenient bool) (trace.Source, int, error) {
	picked := 0
	for _, s := range []string{wl, kernel, traceFile} {
		if s != "" {
			picked++
		}
	}
	if picked != 1 {
		return nil, 0, fmt.Errorf("pick exactly one of -workload, -kernel or -trace (see -list)")
	}
	switch {
	case wl != "":
		p, ok := workload.ByName(wl)
		if !ok {
			return nil, 0, fmt.Errorf("unknown workload %q", wl)
		}
		return p.NewSource(), n, nil
	case kernel != "":
		k, ok := programs.ByName(kernel)
		if !ok {
			return nil, 0, fmt.Errorf("unknown kernel %q", kernel)
		}
		accs, err := k.Trace()
		if err != nil {
			return nil, 0, err
		}
		return trace.NewSliceSource(accs), 0, nil
	default:
		// Native binary or Dinero din; -lenient skips malformed din
		// lines (recorded over unreliable links) instead of failing.
		if lenient {
			accs, skipped, err := trace.OpenLenient(traceFile)
			if err != nil {
				return nil, 0, err
			}
			if skipped > 0 {
				ofl.Notef(os.Stderr, "cachetune: skipped %d malformed trace lines\n", skipped)
			}
			return trace.NewSliceSource(accs), 0, nil
		}
		accs, err := trace.Open(traceFile)
		if err != nil {
			return nil, 0, err
		}
		return trace.NewSliceSource(accs), 0, nil
	}
}
