// Command calibrate prints, for every workload profile, the heuristic's
// choice, the exhaustive optimum and top alternatives, and key miss rates —
// the data used to tune the synthetic profiles to the paper's Table 1.
package main

import (
	"fmt"
	"sort"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

func main() {
	p := energy.DefaultParams()
	fmt.Printf("hit table: ")
	for _, sa := range []energy.SizeAssoc{{SizeBytes: 2048, Ways: 1}, {SizeBytes: 4096, Ways: 1}, {SizeBytes: 8192, Ways: 1}, {SizeBytes: 4096, Ways: 2}, {SizeBytes: 8192, Ways: 2}, {SizeBytes: 8192, Ways: 4}} {
		fmt.Printf("%dK%dW=%.3fnJ ", sa.SizeBytes/1024, sa.Ways, p.HitTable()[sa]*1e9)
	}
	fmt.Printf("\nmiss table: ")
	for _, l := range []int{16, 32, 64} {
		fmt.Printf("%dB=%.1fnJ ", l, p.MissTable()[l]*1e9)
	}
	fmt.Printf("\nstatic/cycle: 2K=%.2gnJ 8K=%.2gnJ\n\n", p.StaticTable()[2048]*1e9, p.StaticTable()[8192]*1e9)

	for _, prof := range workload.Profiles() {
		accs := prof.Generate(150_000)
		inst, data := trace.Split(accs)
		for i, stream := range [][]trace.Access{inst, data} {
			kind := "I"
			want := prof.Paper.ICfg
			if i == 1 {
				kind = "D"
				want = prof.Paper.DCfg
			}
			ev := tuner.NewTraceEvaluator(stream, p)
			h := tuner.SearchPaper(ev)
			x := tuner.Exhaustive(ev)
			sorted := append([]tuner.EvalResult(nil), x.Examined...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].Energy < sorted[b].Energy })
			mr := func(s string) float64 {
				cfg, _ := cache.ParseConfig(s)
				return ev.Evaluate(cfg).Stats.MissRate() * 100
			}
			fmt.Printf("%-9s %s want=%-12s heur=%-12s opt=%-12s (heur/opt=%.2f) top3: %s=%.3g %s=%.3g %s=%.3g | mr 2K1W16=%.2f%% 4K1W16=%.2f%% 8K1W16=%.2f%% 8K4W16=%.2f%%\n",
				prof.Name, kind, want, h.Best.Cfg, x.Best.Cfg, h.Best.Energy/x.Best.Energy,
				sorted[0].Cfg, sorted[0].Energy*1e3, sorted[1].Cfg, sorted[1].Energy*1e3, sorted[2].Cfg, sorted[2].Energy*1e3,
				mr("2K_1W_16B"), mr("4K_1W_16B"), mr("8K_1W_16B"), mr("8K_4W_16B"))
		}
	}
}
