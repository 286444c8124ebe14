// Selftuning: demonstrate the dynamic tuning approaches of paper §1 — a
// workload that switches phase mid-run (bcnt's tiny working set, then
// blit's conflicting strips), handled by periodic and by phase-triggered
// re-tuning. The phase detector notices the miss-rate shift and re-runs
// the heuristic; the cache is never flushed.
package main

import (
	"fmt"

	"selftune/internal/core"
	"selftune/internal/workload"
)

func main() {
	a, _ := workload.ByName("bcnt")
	b, _ := workload.ByName("blit")
	accs := append(a.Generate(400_000), b.Generate(400_000)...)
	fmt.Printf("workload: %s for 400k accesses, then %s for 400k\n\n", a.Name, b.Name)

	for _, mode := range []core.Mode{core.TuneOnce, core.TunePeriodic, core.TuneOnPhaseChange} {
		sys := core.New(core.Options{
			Mode:           mode,
			Window:         5_000,
			Period:         150_000,
			PhaseThreshold: 0.01,
		})
		sys.Run(accs)

		fmt.Printf("mode=%-8s sessions=%d  final I$=%v D$=%v\n",
			mode, len(sys.Events()), sys.IConfig(), sys.DConfig())
		for _, e := range sys.Events() {
			fmt.Printf("  %s$ tuned at access %7d -> %-12v (examined %d, settle writebacks %d)\n",
				e.Cache, e.At, e.Chosen, e.Examined, e.SettleWritebacks)
		}
		r := sys.Report()
		fmt.Printf("  whole-run misses: I$ %.2f%%  D$ %.2f%%\n\n",
			100*r.IStats.MissRate(), 100*r.DStats.MissRate())
	}

	fmt.Println("TuneOnce keeps bcnt's tiny configuration and suffers once blit starts;")
	fmt.Println("the phase detector re-tunes right after the switch and lands on blit's")
	fmt.Println("two-way 8 KB configuration without a single cache flush.")
}
