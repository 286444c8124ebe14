// Quickstart: run the self-tuning cache system on one benchmark and print
// what the on-chip tuner decided and what it saved versus a fixed
// four-way base cache.
package main

import (
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/core"
	"selftune/internal/energy"
	"selftune/internal/report"
	"selftune/internal/workload"
)

func main() {
	// The workload: a model of the Powerstone crc benchmark.
	prof, _ := workload.ByName("crc")

	// A self-tuning system: both caches start at 2 KB direct-mapped
	// 16 B lines; the tuner measures each candidate configuration over
	// a 10k-access window and walks the paper's heuristic.
	sys := core.New(core.Options{Mode: core.TuneOnce})
	sys.Run(prof.Generate(800_000))

	fmt.Printf("workload: %s — %s\n\n", prof.Name, prof.Description)
	for _, e := range sys.Events() {
		fmt.Printf("%s-cache tuned after %d accesses: chose %v (examined %d of 27 configurations, %.1f nJ tuner energy)\n",
			e.Cache, e.At, e.Chosen, e.Examined, e.TunerEnergy*1e9)
	}

	r := sys.Report()
	p := energy.DefaultParams()
	base := cache.BaseConfig()
	fmt.Printf("\nversus the fixed %v base cache:\n", base)
	fmt.Printf("  I$: %s energy saved (miss rate %.2f%%)\n",
		report.Pct(1-r.IBreak.Total()/p.Total(base, r.IStats)), 100*r.IStats.MissRate())
	fmt.Printf("  D$: %s energy saved (miss rate %.2f%%)\n",
		report.Pct(1-r.DBreak.Total()/p.Total(base, r.DStats)), 100*r.DStats.MissRate())
	fmt.Printf("  tuner cost: %.1f nJ — %.6f%% of the memory-access energy it optimised\n",
		r.TunerEnergy*1e9, 100*r.TunerEnergy/(r.IBreak.Total()+r.DBreak.Total()))
}
