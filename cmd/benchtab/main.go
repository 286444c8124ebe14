// Command benchtab regenerates the paper's Table 1: for every benchmark it
// runs the tuning heuristic on the instruction and data streams, reports the
// selected configuration, the number of configurations examined, and the
// energy savings relative to the 8 KB four-way base cache, next to the
// values the paper reports. '=' in the opt columns means the heuristic
// found the exhaustive optimum.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"selftune/internal/energy"
	"selftune/internal/experiments"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 150_000, "accesses to simulate per benchmark")
	tracePath := flag.String("trace", "", "tune a recorded dineroIV-format trace instead of the synthetic benchmarks")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel replay workers")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	ofl := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// -v streams per-replay engine events to stderr; the recorder rides
	// the context into the experiment sweeps.
	ctx := obs.IntoContext(context.Background(), ofl.Recorder(os.Stderr))
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var r experiments.Table1Result
	var err error
	if *tracePath != "" {
		// A recorded trace yields a one-row table with no paper reference
		// columns. An empty or comment-only file is an error, not a
		// zero-row table.
		accs, oerr := trace.OpenNonEmpty(*tracePath)
		if oerr != nil {
			return oerr
		}
		r, err = experiments.Table1TraceCtx(ctx, filepath.Base(*tracePath), accs, energy.DefaultParams(), *workers)
	} else {
		r, err = experiments.Table1Ctx(ctx, *n, energy.DefaultParams(), *workers)
	}
	if err != nil {
		return fmt.Errorf("table 1 run aborted: %w", err)
	}
	tb := r.Table()
	if *csv {
		return tb.WriteCSV(os.Stdout)
	}
	if *tracePath != "" {
		fmt.Println("Table 1 (recorded trace): search heuristic results ('=' means heuristic found the optimum)")
		fmt.Print(tb.String())
		fmt.Printf("\nheuristic missed the exhaustive optimum on %d of %d streams (worst +%.0f%%)\n",
			r.OptimumMisses, 2*len(r.Rows), 100*r.WorstOptimumExcess)
		return nil
	}
	fmt.Println("Table 1: search heuristic results (paper's selections alongside; '=' means heuristic found the optimum)")
	fmt.Print(tb.String())
	fmt.Printf("\n%d of %d selections match the paper; heuristic missed the exhaustive optimum on %d streams (worst +%.0f%%)\n",
		r.PaperMatches, 2*len(r.Rows), r.OptimumMisses, 100*r.WorstOptimumExcess)
	return nil
}
