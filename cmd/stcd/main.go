// Command stcd is the self-tuning cache service, in one of three modes.
//
// Local mode (neither -serve nor -connect) is the crash-safe single-cache
// daemon: it streams one source (-workload, -kernel or -trace; -stream picks
// the inst, data or all references) through the tuning heuristic,
// checkpoints its complete state under -dir, resumes from the newest valid
// checkpoint on startup, re-tunes when the settled miss rate drifts, and
// falls back to the safe configuration if a search fails to settle.
// SIGINT/SIGTERM drain the in-flight window and persist the final state.
// -obs-wait holds the -obs-addr endpoints up after the summary prints.
//
// Serve mode (-serve) runs a fleet of tuning sessions sharded across worker
// goroutines, fed over the fleet wire protocol (the STRC trace codec is the
// payload format, many sessions multiplexed per connection). Sessions
// checkpoint under -dir/sessions/<id> exactly as a local run would, and a
// restarted stcd resumes each resubmitted session from its newest valid
// checkpoint, discarding the re-streamed prefix. SIGINT/SIGTERM stop
// accepting, drain live connections, persist every session and print the
// fleet shutdown report. -alloc-budget partitions a shared byte budget
// across tenants by their measured miss-ratio curves; the plan is advisory
// unless -enforce makes it binding, when sessions search only within their
// budget and opens it cannot fit park in a FIFO queue (-pending-queue) or
// are rejected with an error frame. -read-timeout closes stalled
// connections.
//
// Client mode (-connect) streams one source into a serving stcd as session
// -session, reconnecting and re-streaming on failure; -trace-tag rides in
// the open frame and is stamped onto the server-side session events.
//
// In local and serve mode -obs-addr serves /healthz, /metrics, /debug/pprof
// and /statusz, a JSON snapshot of the daemon or of the live fleet.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"selftune/internal/daemon"
	"selftune/internal/fleet"
	"selftune/internal/obs"
	"selftune/internal/programs"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "stcd:", err)
		os.Exit(1)
	}
}

// run is main with its seams exposed (arguments, stdout), so the mode and
// source checks and a local run's output are pinned by in-process tests.
func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("stcd", flag.ContinueOnError)
	serve := fl.Bool("serve", false, "run the fleet server")
	connect := fl.String("connect", "", "client mode: stream a trace to a serving stcd at this address")
	addr := fl.String("addr", "127.0.0.1:8472", "ingest listen address (serve mode)")

	dir := fl.String("dir", "", "checkpoint directory: the local daemon's store, or the fleet root in serve mode (empty disables persistence)")
	shards := fl.Int("shards", 4, "serve mode: worker shards sessions are distributed over")
	queueDepth := fl.Int("queue-depth", 65536, "serve mode: per-session bound on in-flight accesses")
	shed := fl.Bool("shed", false, "serve mode: drop batches instead of blocking when a session's queue is full (sacrifices bit-identical replay)")
	window := fl.Uint64("window", 10_000, "accesses per measurement window")
	every := fl.Uint64("checkpoint-every", 8, "persist a checkpoint every this many window boundaries")
	keep := fl.Int("keep", 4, "checkpoint generations to retain (per session in serve mode)")
	phase := fl.Float64("phase-threshold", 0.02, "absolute miss-rate drift that triggers a re-tune")
	watchdog := fl.Uint64("watchdog", 64, "abort a session that has not settled after this many windows")

	allocBudget := fl.Int("alloc-budget", 0, "shared capacity budget in bytes partitioned across sessions (0 disables the allocator)")
	allocUnit := fl.Int("alloc-unit", 2048, "allocation granularity in bytes")
	allocEvery := fl.Int("alloc-every", 1, "re-run the allocation after this many fresh session profiles")
	allocDP := fl.Bool("alloc-dp", false, "use the exact DP allocator instead of greedy marginal gain")
	enforce := fl.Bool("enforce", false, "make the allocation binding: sessions search only within their assigned budget, and opens past the budget park or reject (requires -alloc-budget)")
	pendingQueue := fl.Int("pending-queue", 4, "enforced mode: over-budget opens park in a FIFO queue this deep until capacity frees; negative rejects immediately")
	readTimeout := fl.Duration("read-timeout", 0, "close an ingest connection idle for this long (0 disables)")
	shutdownTimeout := fl.Duration("shutdown-timeout", 0, "bound the graceful drain after SIGINT/SIGTERM: past the deadline live connections are force-closed and their sessions persist at the last consumed boundary (0 waits forever)")

	obsAddr := fl.String("obs-addr", "", "serve /healthz, /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:8321)")
	obsLog := fl.String("obs-log", "", "append JSONL telemetry events to this file (feed it to stcexplain; -session filters a fleet log)")
	obsWait := fl.Duration("obs-wait", 0, "local mode: keep the -obs-addr endpoints up this long after the summary prints")

	session := fl.String("session", "", "client mode: session ID to stream as")
	wl := fl.String("workload", "", "synthetic profile to stream (see -list)")
	kernel := fl.String("kernel", "", "mini-VM kernel to stream instead")
	traceFile := fl.String("trace", "", "recorded trace file to stream instead")
	stream := fl.String("stream", "all", "which references to stream: inst, data or all")
	list := fl.Bool("list", false, "list available workloads and kernels")
	n := fl.Int("n", 2_000_000, "accesses to generate (synthetic profiles)")
	chunk := fl.Int("chunk", 64<<10, "client mode: wire frame payload size in bytes")
	retries := fl.Int("retries", 3, "client mode: delivery attempts across reconnects; each retry re-streams from byte 0 and the server's consumed-prefix skip keeps the effect exactly-once")
	retryBackoff := fl.Duration("retry-backoff", 50*time.Millisecond, "client mode: first retry delay, doubling per attempt with deterministic jitter")
	retrySeed := fl.Uint64("retry-seed", 0, "client mode: seed for the deterministic retry jitter")
	traceTag := fl.String("trace-tag", "", "client mode: opaque tag carried in the session's open frame; the server stamps it onto the session's events for end-to-end correlation")
	ofl := obs.RegisterFlags(fl)
	if err := fl.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "synthetic profiles:")
		for _, p := range workload.Profiles() {
			fmt.Fprintf(stdout, "  %-10s %s\n", p.Name, p.Description)
		}
		fmt.Fprintln(stdout, "mini-VM kernels:")
		for _, k := range programs.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", k.Name, k.Description)
		}
		return nil
	}
	if *serve && *connect != "" {
		return fmt.Errorf("pick one of -serve or -connect")
	}
	if *connect != "" && *session == "" {
		return fmt.Errorf("client mode needs -session")
	}
	var accs []trace.Access
	if !*serve {
		var err error
		if accs, err = pickStream(*wl, *kernel, *traceFile, *stream, *n); err != nil {
			return err
		}
	}
	if *connect != "" {
		return client(stdout, *connect, *session, *traceTag, accs, *chunk,
			*retries, *retryBackoff, *retrySeed, ofl.Recorder(os.Stderr))
	}

	// Local and serve mode share the telemetry sinks: -v streams events to
	// stderr, -obs-log appends them to a file, and either (or both) feed the
	// same recorder.
	recs := []obs.Recorder{ofl.Recorder(os.Stderr)}
	if *obsLog != "" {
		f, err := os.OpenFile(*obsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		recs = append(recs, obs.NewJSONL(f))
	}
	tel := &telemetry{ofl: ofl, stdout: stdout, rec: obs.Tee(recs...), reg: obs.NewRegistry(), addr: *obsAddr}
	sopts := daemon.Options{
		Window:          *window,
		CheckpointEvery: *every,
		PhaseThreshold:  *phase,
		WatchdogWindows: *watchdog,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*serve {
		sopts.Dir, sopts.Keep, sopts.Rec, sopts.Reg = *dir, *keep, tel.rec, tel.reg
		return local(ctx, tel, sopts, accs, *obsWait)
	}
	return serveFleet(ctx, tel, *addr, *shutdownTimeout, fleet.Options{
		Shards:           *shards,
		QueueDepth:       *queueDepth,
		Shed:             *shed,
		Dir:              *dir,
		Keep:             *keep,
		Rec:              tel.rec,
		Reg:              tel.reg,
		Session:          sopts,
		AllocBudgetBytes: *allocBudget,
		AllocUnit:        *allocUnit,
		AllocEvery:       *allocEvery,
		AllocDP:          *allocDP,
		EnforceBudget:    *enforce,
		PendingQueue:     *pendingQueue,
		ReadTimeout:      *readTimeout,
	})
}

// telemetry is what local and serve mode share: the flags' verbosity, the
// event recorder, the metrics registry and the observability address.
type telemetry struct {
	ofl    *obs.Flags
	stdout io.Writer
	rec    obs.Recorder
	reg    *obs.Registry
	addr   string // -obs-addr; empty serves no endpoints
}

// serveObs starts the observability endpoints when -obs-addr is set, with
// /healthz reporting the named gauges; the returned func stops them.
func (t *telemetry) serveObs(health map[string]string, statusz func() any) (func(), error) {
	if t.addr == "" {
		return func() {}, nil
	}
	srv, laddr, errc, err := obs.Serve(t.addr, obs.NewMux(t.reg, func() obs.Health {
		vals := make(map[string]float64, len(health))
		for k, g := range health {
			vals[k] = t.reg.Gauge(g).Value()
		}
		return obs.Health{Status: "ok", Values: vals}
	}, obs.WithStatusz(statusz)))
	if err != nil {
		return nil, err
	}
	t.ofl.Notef(t.stdout, "observability endpoints on http://%s/ (healthz, metrics, statusz, debug/pprof)", laddr)
	go func() {
		if serr := <-errc; serr != nil {
			fmt.Fprintln(os.Stderr, "stcd: obs server:", serr)
		}
	}()
	return func() { srv.Close() }, nil
}

// local runs one daemon over accs until the stream ends or ctx is
// cancelled, then prints its decision log and current configuration.
func local(ctx context.Context, tel *telemetry, opts daemon.Options, accs []trace.Access, obsWait time.Duration) error {
	d, err := daemon.New(opts)
	if err != nil {
		return err
	}
	if d.Recovered() {
		tel.ofl.Notef(tel.stdout, "recovered from checkpoint: %d accesses consumed, %d windows, config %v, tuning=%v",
			d.Consumed(), d.Windows(), d.Config(), d.Tuning())
	}
	stopObs, err := tel.serveObs(map[string]string{
		"consumed": "daemon_consumed_accesses",
		"windows":  "daemon_windows_total",
		"retunes":  "daemon_retunes_total",
		"tuning":   "daemon_tuning",
	}, func() any { return d.Statusz() })
	if err != nil {
		return err
	}
	defer stopObs()

	err = d.Run(ctx, accs)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		tel.ofl.Notef(tel.stdout, "\ninterrupted; state persisted at %d accesses", d.Consumed())
	}
	fmt.Fprintf(tel.stdout, "consumed %d accesses, %d windows, %d re-tunes\n", d.Consumed(), d.Windows(), d.Retunes())
	tb := report.NewTable("at", "event", "config", "window nJ")
	for _, e := range d.Events() {
		tb.Addf(e.At, e.Kind, e.Cfg.String(), e.Energy*1e9)
	}
	fmt.Fprint(tel.stdout, tb.String())
	if out := d.Settled(); out != nil {
		status := "tuned"
		if out.Degraded {
			status = "DEGRADED (safe fallback)"
		}
		fmt.Fprintf(tel.stdout, "current: %v (%s), settle writebacks %d\n", d.Config(), status, out.SettleWB)
	} else {
		fmt.Fprintf(tel.stdout, "current: %v (search in progress)\n", d.Config())
	}
	if tel.addr != "" && obsWait > 0 && !interrupted {
		// Hold the endpoints up after the summary so a scraper (or the CI
		// smoke test) can read the final state; SIGINT/SIGTERM ends the
		// wait early.
		tel.ofl.Notef(tel.stdout, "stream done; serving observability endpoints for %v (interrupt to stop)", obsWait)
		select {
		case <-time.After(obsWait):
		case <-ctx.Done():
		}
	}
	return nil
}

// serveFleet runs the fleet server until ctx is cancelled, then drains the
// live connections, persists every session and prints the fleet report.
func serveFleet(ctx context.Context, tel *telemetry, addr string, shutdownTimeout time.Duration, opts fleet.Options) error {
	m, err := fleet.New(opts)
	if err != nil {
		return err
	}
	stopObs, err := tel.serveObs(map[string]string{
		"sessions": "fleet_sessions",
		"shards":   "fleet_shards",
	}, func() any { return m.Statusz() })
	if err != nil {
		return err
	}
	defer stopObs()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	tel.ofl.Notef(tel.stdout, "fleet ingest on %s (%d shards)", ln.Addr(), opts.Shards)

	var conns sync.WaitGroup
	var liveMu sync.Mutex
	live := map[net.Conn]struct{}{}
	go func() {
		<-ctx.Done()
		ln.Close() // unblocks Accept
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break // shutting down
			}
			fmt.Fprintln(os.Stderr, "stcd: accept:", err)
			continue
		}
		liveMu.Lock()
		live[conn] = struct{}{}
		liveMu.Unlock()
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer func() {
				liveMu.Lock()
				delete(live, conn)
				liveMu.Unlock()
				conn.Close()
			}()
			// IngestConn reports admission rejections and per-session
			// failures back to the client as error frames on the same
			// connection; only frame-level failures surface here.
			if err := m.IngestConn(conn); err != nil {
				fmt.Fprintln(os.Stderr, "stcd: conn:", err)
			}
		}()
	}

	tel.ofl.Notef(tel.stdout, "interrupted; draining connections and persisting sessions")
	drained := make(chan struct{})
	go func() {
		conns.Wait()
		close(drained)
	}()
	if shutdownTimeout > 0 {
		select {
		case <-drained:
		case <-time.After(shutdownTimeout):
			// The drain deadline passed: force-close whatever is still
			// connected. Each ingest loop returns, and its deferred cleanup
			// closes the connection's sessions gracefully — every consumed
			// access is covered by the final persisted boundary.
			liveMu.Lock()
			stragglers := len(live)
			for c := range live {
				c.Close()
			}
			liveMu.Unlock()
			tel.rec.Record(obs.Event{Name: "fleet.drain_timeout", Fields: []slog.Attr{
				slog.String("timeout", shutdownTimeout.String()),
				slog.Int("conns", stragglers),
			}})
			fmt.Fprintf(os.Stderr, "stcd: drain exceeded %v; force-closed %d connections\n",
				shutdownTimeout, stragglers)
			<-drained
		}
	} else {
		<-drained
	}
	if err := m.Close(); err != nil {
		return err
	}
	if plan := m.Plan(); plan != nil {
		fmt.Fprintf(tel.stdout, "last allocation: %d/%d bytes assigned across %d sessions, %.1f expected misses/window\n",
			plan.AssignedBytes, plan.TotalBytes, len(plan.Assignments), plan.TotalMisses)
	}
	rep := m.Report()
	mode := "advisory"
	if rep.Enforced {
		mode = "enforced"
	}
	fmt.Fprintf(tel.stdout, "fleet report (%s): %d sessions closed, %.1f misses/window total, %d B settled footprint",
		mode, len(rep.Sessions), rep.TotalMissesPerWindow, rep.SettledBytesTotal)
	if rep.Enforced {
		fmt.Fprintf(tel.stdout, " against a %d B budget; %d opens rejected, %d admitted from the pending queue",
			rep.BudgetBytes, rep.Rejected, rep.Unparked)
	}
	fmt.Fprintln(tel.stdout)
	return nil
}

// client streams one trace into a serving stcd through the reconnecting
// retry client: a dropped connection or a server-side quarantine redials
// and re-streams from byte 0 (the server's consumed-prefix skip keeps the
// effect exactly-once), and delivery counts as done only on the server's
// close acknowledgement.
func client(stdout io.Writer, addr, session, tag string, accs []trace.Access, chunk, retries int, backoff time.Duration, seed uint64, rec obs.Recorder) error {
	// Render the trace to codec bytes once — the same bytes every attempt
	// re-streams — exactly the path a client tailing a recorded trace file
	// takes.
	var enc bytes.Buffer
	if err := trace.Encode(&enc, accs); err != nil {
		return err
	}
	rc := &fleet.RetryClient{
		Dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) },
		Seed:        seed,
		MaxAttempts: retries,
		BaseBackoff: backoff,
		Chunk:       chunk,
		Trace:       tag,
		Rec:         rec,
	}
	rep, err := rc.Run(session, enc.Bytes())
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "stcd: attempt failed:", f)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "streamed %d accesses as session %q (%d attempt(s))\n", len(accs), session, rep.Attempts)
	return nil
}

// pickStream loads the chosen source (local and client mode) and filters it
// down to the selected stream.
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
		inst := trace.OnlyInst(accs)
		accs = inst
	case "data":
		data := trace.OnlyData(accs)
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
