// Command stcd is the multi-tenant face of the self-tuning cache: one
// process running a fleet of tuning sessions, sharded across worker
// goroutines, with namespaced crash-safe checkpoints, session-labelled
// metrics, and an optional global capacity allocator that partitions a
// shared byte budget across tenants by their measured miss-ratio curves.
//
// Serve mode (-serve) listens for fleet wire-protocol connections: each
// client opens named sessions and streams their traces (the STRC trace
// codec is the wire format), multiplexed over one connection. Sessions
// checkpoint under -dir/sessions/<id> exactly as a solo tuned run would,
// and a restarted stcd resumes each resubmitted session from its newest
// valid checkpoint, discarding the re-streamed prefix. SIGINT/SIGTERM stop
// accepting, drain live connections, persist every session's final state,
// print the fleet shutdown report (mode, misses/window totals, admission
// counters), and exit.
//
// With -alloc-budget the allocator's plan is advisory: it informs but never
// constrains each session's own search. Adding -enforce makes it binding —
// sessions search only within their assigned budget, reallocation triggers
// a constrained re-tune, and opens the budget cannot fit park in a bounded
// FIFO queue (-pending-queue) or are rejected with an error frame the
// client sees. -read-timeout closes connections that stall mid-stream.
//
// Client mode (-connect) replays one trace source into a serving stcd:
// open a session, stream the trace, hang up. Run several clients to
// populate a fleet. -trace-tag rides in the session's open frame and is
// stamped onto the server-side session events, tying a client's delivery
// attempts to the server's story; -obs-addr additionally serves /statusz,
// a JSON snapshot of the live fleet (per-session health, budgets, queue
// depths, shard workers, the pending queue and the allocator).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
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
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stcd:", err)
		os.Exit(1)
	}
}

func run() error {
	serve := flag.Bool("serve", false, "run the fleet server")
	connect := flag.String("connect", "", "client mode: stream a trace to a serving stcd at this address")
	addr := flag.String("addr", "127.0.0.1:8472", "ingest listen address (serve mode)")

	dir := flag.String("dir", "", "fleet checkpoint root (empty disables persistence)")
	shards := flag.Int("shards", 4, "worker shards sessions are distributed over")
	queueDepth := flag.Int("queue-depth", 65536, "per-session bound on in-flight accesses")
	shed := flag.Bool("shed", false, "drop batches instead of blocking when a session's queue is full (sacrifices bit-identical replay)")
	window := flag.Uint64("window", 10_000, "accesses per measurement window")
	every := flag.Uint64("checkpoint-every", 8, "persist a checkpoint every this many window boundaries")
	keep := flag.Int("keep", 4, "checkpoint generations to retain per session")
	phase := flag.Float64("phase-threshold", 0.02, "absolute miss-rate drift that triggers a re-tune")
	watchdog := flag.Uint64("watchdog", 64, "abort a session that has not settled after this many windows")

	allocBudget := flag.Int("alloc-budget", 0, "shared capacity budget in bytes partitioned across sessions (0 disables the allocator)")
	allocUnit := flag.Int("alloc-unit", 2048, "allocation granularity in bytes")
	allocEvery := flag.Int("alloc-every", 1, "re-run the allocation after this many fresh session profiles")
	allocDP := flag.Bool("alloc-dp", false, "use the exact DP allocator instead of greedy marginal gain")
	enforce := flag.Bool("enforce", false, "make the allocation binding: sessions search only within their assigned budget, and opens past the budget park or reject (requires -alloc-budget)")
	pendingQueue := flag.Int("pending-queue", 4, "enforced mode: over-budget opens park in a FIFO queue this deep until capacity frees; negative rejects immediately")
	readTimeout := flag.Duration("read-timeout", 0, "close an ingest connection idle for this long (0 disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 0, "bound the graceful drain after SIGINT/SIGTERM: past the deadline live connections are force-closed and their sessions persist at the last consumed boundary (0 waits forever)")

	obsAddr := flag.String("obs-addr", "", "serve /healthz, /metrics, /statusz and /debug/pprof on this address")
	obsLog := flag.String("obs-log", "", "append JSONL telemetry to this file (filter per session with stcexplain -session)")

	session := flag.String("session", "", "client mode: session ID to stream as")
	wl := flag.String("workload", "", "client mode: synthetic profile to stream (see tuned -list)")
	kernel := flag.String("kernel", "", "client mode: mini-VM kernel to stream instead")
	traceFile := flag.String("trace", "", "client mode: recorded trace file to stream instead")
	n := flag.Int("n", 2_000_000, "client mode: accesses to generate (synthetic profiles)")
	chunk := flag.Int("chunk", 64<<10, "client mode: wire frame payload size in bytes")
	retries := flag.Int("retries", 3, "client mode: delivery attempts across reconnects; each retry re-streams from byte 0 and the server's consumed-prefix skip keeps the effect exactly-once")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "client mode: first retry delay, doubling per attempt with deterministic jitter")
	retrySeed := flag.Uint64("retry-seed", 0, "client mode: seed for the deterministic retry jitter")
	traceTag := flag.String("trace-tag", "", "client mode: opaque tag carried in the session's open frame; the server stamps it onto the session's events for end-to-end correlation")
	ofl := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *serve && *connect != "":
		return fmt.Errorf("pick one of -serve or -connect")
	case *connect != "":
		return client(*connect, *session, *wl, *kernel, *traceFile, *traceTag, *n, *chunk,
			*retries, *retryBackoff, *retrySeed, ofl.Recorder(os.Stderr))
	case !*serve:
		return fmt.Errorf("pick -serve or -connect (see -help)")
	}

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

	m, err := fleet.New(fleet.Options{
		Shards:     *shards,
		QueueDepth: *queueDepth,
		Shed:       *shed,
		Dir:        *dir,
		Keep:       *keep,
		Rec:        rec,
		Reg:        reg,
		Session: daemon.Options{
			Window:          *window,
			CheckpointEvery: *every,
			PhaseThreshold:  *phase,
			WatchdogWindows: *watchdog,
		},
		AllocBudgetBytes: *allocBudget,
		AllocUnit:        *allocUnit,
		AllocEvery:       *allocEvery,
		AllocDP:          *allocDP,
		EnforceBudget:    *enforce,
		PendingQueue:     *pendingQueue,
		ReadTimeout:      *readTimeout,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *obsAddr != "" {
		srv, laddr, errc, err := obs.Serve(*obsAddr, obs.NewMux(reg, func() obs.Health {
			return obs.Health{Status: "ok", Values: map[string]float64{
				"sessions": reg.Gauge("fleet_sessions").Value(),
				"shards":   reg.Gauge("fleet_shards").Value(),
			}}
		}, obs.WithStatusz(func() any { return m.Statusz() })))
		if err != nil {
			return err
		}
		defer srv.Close()
		ofl.Notef(os.Stdout, "observability endpoints on http://%s/ (healthz, metrics, statusz, debug/pprof)\n", laddr)
		go func() {
			if serr := <-errc; serr != nil {
				fmt.Fprintln(os.Stderr, "stcd: obs server:", serr)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ofl.Notef(os.Stdout, "fleet ingest on %s (%d shards)\n", ln.Addr(), *shards)

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

	ofl.Notef(os.Stdout, "interrupted; draining connections and persisting sessions\n")
	drained := make(chan struct{})
	go func() {
		conns.Wait()
		close(drained)
	}()
	if *shutdownTimeout > 0 {
		select {
		case <-drained:
		case <-time.After(*shutdownTimeout):
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
			rec.Record(obs.Event{Name: "fleet.drain_timeout", Fields: []slog.Attr{
				slog.String("timeout", shutdownTimeout.String()),
				slog.Int("conns", stragglers),
			}})
			fmt.Fprintf(os.Stderr, "stcd: drain exceeded %v; force-closed %d connections\n",
				*shutdownTimeout, stragglers)
			<-drained
		}
	} else {
		<-drained
	}
	if err := m.Close(); err != nil {
		return err
	}
	if plan := m.Plan(); plan != nil {
		fmt.Printf("last allocation: %d/%d bytes assigned across %d sessions, %.1f expected misses/window\n",
			plan.AssignedBytes, plan.TotalBytes, len(plan.Assignments), plan.TotalMisses)
	}
	rep := m.Report()
	mode := "advisory"
	if rep.Enforced {
		mode = "enforced"
	}
	fmt.Printf("fleet report (%s): %d sessions closed, %.1f misses/window total, %d B settled footprint",
		mode, len(rep.Sessions), rep.TotalMissesPerWindow, rep.SettledBytesTotal)
	if rep.Enforced {
		fmt.Printf(" against a %d B budget; %d opens rejected, %d admitted from the pending queue",
			rep.BudgetBytes, rep.Rejected, rep.Unparked)
	}
	fmt.Println()
	return nil
}

// client streams one trace source into a serving stcd through the
// reconnecting retry client: a dropped connection or a server-side
// quarantine redials and re-streams from byte 0 (the server's
// consumed-prefix skip keeps the effect exactly-once), and delivery counts
// as done only on the server's close acknowledgement.
func client(addr, session, wl, kernel, traceFile, tag string, n, chunk, retries int, backoff time.Duration, seed uint64, rec obs.Recorder) error {
	if session == "" {
		return fmt.Errorf("client mode needs -session")
	}
	accs, err := pickStream(wl, kernel, traceFile, n)
	if err != nil {
		return err
	}
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
	fmt.Printf("streamed %d accesses as session %q (%d attempt(s))\n", len(accs), session, rep.Attempts)
	return nil
}

// pickStream loads the client's chosen trace source.
func pickStream(wl, kernel, traceFile string, n int) ([]trace.Access, error) {
	picked := 0
	for _, s := range []string{wl, kernel, traceFile} {
		if s != "" {
			picked++
		}
	}
	if picked != 1 {
		return nil, fmt.Errorf("pick exactly one of -workload, -kernel or -trace")
	}
	switch {
	case wl != "":
		p, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		return p.Generate(n), nil
	case kernel != "":
		k, ok := programs.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		return k.Trace()
	default:
		return trace.OpenNonEmpty(traceFile)
	}
}
