// Command sweep regenerates the paper's figures:
//
//	-fig 2: on-chip, off-chip and total energy versus cache size
//	        (1 KB–1 MB) for the parser-like workload;
//	-fig 3: average instruction-cache miss rate and normalised fetch
//	        energy over the 18 base configurations;
//	-fig 4: the same for the data cache.
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
	"selftune/internal/report"
	"selftune/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.Int("fig", 2, "figure to regenerate (2, 3 or 4)")
	n := flag.Int("n", 200_000, "accesses to simulate per data point")
	tracePath := flag.String("trace", "", "sweep a recorded dineroIV-format trace instead of the synthetic workloads")
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

	// A recorded trace replaces the synthetic workloads wholesale: the
	// whole file is swept, so -n does not apply. An empty or comment-only
	// file is an error, not a zero-row figure.
	var accs []trace.Access
	var traceName string
	if *tracePath != "" {
		var err error
		if accs, err = trace.OpenNonEmpty(*tracePath); err != nil {
			return err
		}
		traceName = filepath.Base(*tracePath)
	}

	p := energy.DefaultParams()
	switch *fig {
	case 2:
		var pts []experiments.Fig2Point
		var err error
		if accs != nil {
			pts, err = experiments.Figure2TraceCtx(ctx, traceName, accs, p, *workers)
		} else {
			pts, err = experiments.Figure2Ctx(ctx, *n, p, *workers)
		}
		if err != nil {
			return fmt.Errorf("figure 2 sweep aborted: %w", err)
		}
		var sizes []string
		var onChip, offChip, total []float64
		for _, pt := range pts {
			sizes = append(sizes, fmt.Sprintf("%dKB", pt.SizeBytes/1024))
			onChip = append(onChip, pt.OnChip*1e3)
			offChip = append(offChip, pt.OffChip*1e3)
			total = append(total, pt.Total*1e3)
		}
		src := "parser-like workload"
		if traceName != "" {
			src = "trace " + traceName
		}
		fmt.Printf("Figure 2: energy (mJ) vs cache size, %s\n", src)
		fmt.Println(report.Series("Cache", sizes, onChip))
		fmt.Println(report.Series("Off-chip Memory", sizes, offChip))
		fmt.Println(report.Series("Total", sizes, total))
		fmt.Printf("minimum total energy at %dKB\n", experiments.Knee(pts).SizeBytes/1024)
	case 3, 4:
		inst := *fig == 3
		var rows []experiments.Fig34Row
		var err error
		if accs != nil {
			rows, err = experiments.Figure34TraceCtx(ctx, traceName, accs, inst, p, *workers)
		} else {
			rows, err = experiments.Figure34Ctx(ctx, *n, inst, p, *workers)
		}
		if err != nil {
			return fmt.Errorf("figure %d sweep aborted: %w", *fig, err)
		}
		name := "data"
		if inst {
			name = "instruction"
		}
		src := "over 19 benchmarks"
		if traceName != "" {
			src = "for trace " + traceName
		}
		fmt.Printf("Figure %d: average %s-cache miss rate and normalised energy %s\n", *fig, name, src)
		tb := report.NewTable("config", "avg miss rate", "normalised energy")
		for _, r := range rows {
			tb.Add(r.Cfg.String(), report.Pct(r.AvgMissRate), fmt.Sprintf("%.3f", r.Normalised))
		}
		fmt.Print(tb.String())
	default:
		fmt.Fprintln(os.Stderr, "sweep: -fig must be 2, 3 or 4")
		os.Exit(2)
	}
	return nil
}
