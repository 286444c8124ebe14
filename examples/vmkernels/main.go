// Vmkernels: run real Powerstone-style kernels — assembled from MIPS-like
// source and executed on the mini in-order core — and tune the cache for
// each one's actual reference stream. This is the fully-real end of the
// reproduction: no synthetic trace model, just programs.
package main

import (
	"fmt"
	"log"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/programs"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

func main() {
	p := energy.DefaultParams()
	base := cache.BaseConfig()

	tb := report.NewTable("kernel", "insts", "I-cache", "No.", "I-save", "D-cache", "No.", "D-save", "optimal?")
	for _, k := range programs.All() {
		accs, err := k.Trace()
		if err != nil {
			log.Fatalf("%s: %v", k.Name, err)
		}
		inst, data := trace.Split(accs)

		iev := tuner.NewTraceEvaluator(inst, p)
		dev := tuner.NewTraceEvaluator(data, p)
		ih, dh := tuner.SearchPaper(iev), tuner.SearchPaper(dev)

		opt := "yes"
		iOpt, dOpt := tuner.Exhaustive(iev).Best, tuner.Exhaustive(dev).Best
		if iOpt.Cfg != ih.Best.Cfg {
			opt = "I: " + iOpt.Cfg.String()
		}
		if dOpt.Cfg != dh.Best.Cfg {
			if opt != "yes" {
				opt += " "
			} else {
				opt = ""
			}
			opt += "D: " + dOpt.Cfg.String()
		}
		tb.Add(k.Name, fmt.Sprint(len(inst)),
			ih.Best.Cfg.String(), fmt.Sprint(ih.NumExamined()),
			report.Pct(1-ih.Best.Energy/iev.Evaluate(base).Energy),
			dh.Best.Cfg.String(), fmt.Sprint(dh.NumExamined()),
			report.Pct(1-dh.Best.Energy/dev.Evaluate(base).Energy),
			opt)
	}
	fmt.Println("self-tuning results for real kernels executed on the mini MIPS-like core:")
	fmt.Print(tb.String())
	fmt.Println("\nsavings are versus the fixed 8K 4-way base cache; every kernel is a real")
	fmt.Println("assembly program validated against a Go reference implementation.")
	fmt.Println("note blit: its two 8 KB buffers sit exactly 0x2000 apart, so they conflict")
	fmt.Println("in every direct-mapped mapping — the same greedy-search trap the paper")
	fmt.Println("reports for pjpeg and mpeg2 arises here organically from real code.")
}
