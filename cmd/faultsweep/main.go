// Command faultsweep runs the robustness study: a seeded Monte Carlo sweep
// over fault rates, where every trial corrupts the reference stream, breaks
// the cache instance, and glitches the counter readout, then runs the full
// self-tuning loop and scores its choice against the clean offline optimum.
// The output reports, per benchmark and rate, how often the paper-order
// heuristic still lands within tolerance of the optimum and how often it
// degraded to the safe configuration. A fixed -seed reproduces the sweep
// bit for bit at any -workers count.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"

	"selftune/internal/experiments"
	"selftune/internal/obs"
	"selftune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultsweep:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 100_000, "accesses to simulate per benchmark")
	rates := flag.String("rates", "0,0.001,0.01,0.05", "comma-separated fault rates to sweep")
	trials := flag.Int("trials", 10, "Monte Carlo trials per (benchmark, rate)")
	seed := flag.Uint64("seed", 1, "root seed for all fault draws")
	tol := flag.Float64("tol", 0.05, "success threshold: chosen config within this fraction of the clean optimum")
	bench := flag.String("bench", "", "comma-separated benchmark names (empty = all profiles)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel trial workers")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	ofl := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	opt := experiments.FaultSweepOptions{
		N:         *n,
		Trials:    *trials,
		Seed:      *seed,
		Tolerance: *tol,
	}
	for _, f := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r < 0 || r > 1 {
			return fmt.Errorf("bad -rates entry %q (want numbers in [0,1])", f)
		}
		opt.Rates = append(opt.Rates, r)
	}
	if *bench != "" {
		for _, b := range strings.Split(*bench, ",") {
			name := strings.TrimSpace(b)
			if _, ok := workload.ByName(name); !ok {
				return fmt.Errorf("unknown benchmark %q (try cachetune -list)", name)
			}
			opt.Benchmarks = append(opt.Benchmarks, name)
		}
	}
	if *trials <= 0 {
		return fmt.Errorf("-trials must be positive")
	}

	res := experiments.FaultSweepWorkers(opt, *workers)

	// -v emits one structured event per sweep cell — the machine-readable
	// twin of the table, keyed by (benchmark, rate) rather than wall-clock.
	if rec := ofl.Recorder(os.Stderr); rec.Enabled() {
		for _, c := range res.Cells {
			rec.Record(obs.Event{
				Name: "faultsweep.cell",
				Fields: []slog.Attr{
					slog.String("bench", c.Bench),
					slog.Float64("rate", c.Rate),
					slog.Int("trials", c.Trials),
					slog.Int("within_tol", c.WithinTol),
					slog.Int("degraded", c.Degraded),
					slog.Float64("avg_excess", c.AvgExcess),
					slog.Float64("worst_excess", c.WorstExcess),
				},
			})
		}
	}
	if *csv {
		return res.Table().WriteCSV(os.Stdout)
	}
	ofl.Notef(os.Stdout, "fault sweep: %d trials per cell, seed %d, %d accesses per benchmark",
		*trials, *seed, *n)
	fmt.Print(res.Table().String())
	return nil
}
