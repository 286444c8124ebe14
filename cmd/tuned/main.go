// Command tuned is the crash-safe self-tuning cache daemon: it streams one
// cache's accesses from a workload or trace file through the tuning
// heuristic, checkpoints its complete state durably as it goes, recovers
// from the newest valid checkpoint on startup, re-tunes when the settled
// configuration's miss rate drifts past a threshold, and falls back to the
// safe configuration if a tuning session fails to settle. SIGINT/SIGTERM
// trigger a graceful shutdown that persists the final state, so the next
// invocation with the same -dir and source resumes where this one stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selftune/internal/daemon"
	"selftune/internal/obs"
	"selftune/internal/programs"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tuned:", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "synthetic benchmark profile to stream (see -list)")
	kernel := flag.String("kernel", "", "mini-VM kernel to stream instead")
	traceFile := flag.String("trace", "", "recorded trace file to stream instead")
	stream := flag.String("stream", "data", "which references feed the cache: inst, data or all")
	list := flag.Bool("list", false, "list available workloads and kernels")
	n := flag.Int("n", 2_000_000, "accesses to generate (synthetic profiles)")
	window := flag.Uint64("window", 10_000, "accesses per measurement window")
	dir := flag.String("dir", "", "checkpoint directory (empty disables persistence)")
	every := flag.Uint64("checkpoint-every", 8, "persist a checkpoint every this many window boundaries")
	keep := flag.Int("keep", 4, "checkpoint generations to retain")
	phase := flag.Float64("phase-threshold", 0.02, "absolute miss-rate drift that triggers a re-tune")
	watchdog := flag.Uint64("watchdog", 64, "abort a session that has not settled after this many windows")
	obsAddr := flag.String("obs-addr", "", "serve /healthz, /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:8321)")
	obsLog := flag.String("obs-log", "", "append JSONL telemetry events to this file (feed it to stcexplain)")
	obsWait := flag.Duration("obs-wait", 0, "keep the -obs-addr endpoints up this long after the stream ends")
	ofl := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("synthetic profiles:")
		for _, p := range workload.Profiles() {
			fmt.Printf("  %-10s %s\n", p.Name, p.Description)
		}
		fmt.Println("mini-VM kernels:")
		for _, k := range programs.All() {
			fmt.Printf("  %-10s %s\n", k.Name, k.Description)
		}
		return nil
	}

	accs, err := pickStream(*wl, *kernel, *traceFile, *stream, *n)
	if err != nil {
		return err
	}

	// Assemble the telemetry sinks: -v streams events to stderr, -obs-log
	// appends them to a file, and either (or both) feed the same recorder.
	recs := []obs.Recorder{ofl.Recorder(os.Stderr)}
	if *obsLog != "" {
		f, err := os.OpenFile(*obsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		recs = append(recs, obs.NewJSONL(f))
	}
	rec := obs.Tee(recs...)
	reg := obs.NewRegistry()

	d, err := daemon.New(daemon.Options{
		Window:          *window,
		Dir:             *dir,
		CheckpointEvery: *every,
		Keep:            *keep,
		PhaseThreshold:  *phase,
		WatchdogWindows: *watchdog,
		Rec:             rec,
		Reg:             reg,
	})
	if err != nil {
		return err
	}
	if d.Recovered() {
		ofl.Notef(os.Stdout, "recovered from checkpoint: %d accesses consumed, %d windows, config %v, tuning=%v\n",
			d.Consumed(), d.Windows(), d.Config(), d.Tuning())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *obsAddr != "" {
		srv, laddr, errc, err := obs.Serve(*obsAddr, obs.NewMux(reg, func() obs.Health {
			return obs.Health{Status: "ok", Values: map[string]float64{
				"consumed": reg.Gauge("daemon_consumed_accesses").Value(),
				"windows":  reg.Gauge("daemon_windows_total").Value(),
				"retunes":  reg.Gauge("daemon_retunes_total").Value(),
				"tuning":   reg.Gauge("daemon_tuning").Value(),
			}}
		}, obs.WithStatusz(func() any { return d.Statusz() })))
		if err != nil {
			return err
		}
		defer srv.Close()
		ofl.Notef(os.Stdout, "observability endpoints on http://%s/ (healthz, metrics, statusz, debug/pprof)\n", laddr)
		go func() {
			if serr := <-errc; serr != nil {
				fmt.Fprintln(os.Stderr, "tuned: obs server:", serr)
			}
		}()
	}

	err = d.Run(ctx, trace.NewSliceSource(accs))
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}

	if interrupted {
		ofl.Notef(os.Stdout, "\ninterrupted; state persisted at %d accesses\n", d.Consumed())
	}
	if *obsAddr != "" && *obsWait > 0 && !interrupted {
		// Hold the endpoints up so a scraper (or the CI smoke test) can
		// read the final state; SIGINT/SIGTERM ends the wait early.
		ofl.Notef(os.Stdout, "stream done; serving observability endpoints for %v (interrupt to stop)\n", *obsWait)
		select {
		case <-time.After(*obsWait):
		case <-ctx.Done():
		}
	}
	fmt.Printf("consumed %d accesses, %d windows, %d re-tunes\n", d.Consumed(), d.Windows(), d.Retunes())
	tb := report.NewTable("at", "event", "config", "window nJ")
	for _, e := range d.Events() {
		tb.Addf(e.At, e.Kind, e.Cfg.String(), e.Energy*1e9)
	}
	fmt.Print(tb.String())
	if out := d.Settled(); out != nil {
		status := "tuned"
		if out.Degraded {
			status = "DEGRADED (safe fallback)"
		}
		fmt.Printf("current: %v (%s), settle writebacks %d\n", d.Config(), status, out.SettleWB)
	} else {
		fmt.Printf("current: %v (search in progress)\n", d.Config())
	}
	return nil
}

// pickStream loads the chosen source and filters it down to the stream one
// cache sees.
func pickStream(wl, kernel, traceFile, stream string, n int) ([]trace.Access, error) {
	picked := 0
	for _, s := range []string{wl, kernel, traceFile} {
		if s != "" {
			picked++
		}
	}
	if picked != 1 {
		return nil, fmt.Errorf("pick exactly one of -workload, -kernel or -trace (see -list)")
	}
	var accs []trace.Access
	switch {
	case wl != "":
		p, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		accs = p.Generate(n)
	case kernel != "":
		k, ok := programs.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		var err error
		accs, err = k.Trace()
		if err != nil {
			return nil, err
		}
	default:
		var err error
		accs, err = trace.OpenNonEmpty(traceFile)
		if err != nil {
			return nil, err
		}
	}
	switch stream {
	case "inst":
		inst, _ := trace.Split(trace.NewSliceSource(accs))
		accs = inst
	case "data":
		_, data := trace.Split(trace.NewSliceSource(accs))
		accs = data
	case "all":
	default:
		return nil, fmt.Errorf("unknown -stream %q (want inst, data or all)", stream)
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("the selected %s stream is empty", stream)
	}
	return accs, nil
}
