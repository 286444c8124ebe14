// Benchmarks regenerating every table and figure of the paper's evaluation.
// Run with:
//
//	go test -bench=. -benchmem -v
//
// Each benchmark times the underlying experiment machinery and reports the
// paper-relevant quantities as custom metrics; the -v log carries the
// regenerated rows/series. EXPERIMENTS.md records paper-vs-measured values.
package selftune_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/sim"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

const benchAccesses = 150_000

type benchStream struct {
	name  string
	kind  string // "I" or "D"
	accs  []trace.Access
	paper string
}

// benchStreams generates the 38 per-cache streams of the benchmark suite.
func benchStreams() []benchStream {
	var out []benchStream
	for _, prof := range workload.Profiles() {
		inst, data := trace.Split(trace.NewSliceSource(prof.Generate(benchAccesses)))
		out = append(out,
			benchStream{prof.Name, "I", inst, prof.Paper.ICfg},
			benchStream{prof.Name, "D", data, prof.Paper.DCfg})
	}
	return out
}

// BenchmarkFigure2EnergyVsCacheSize regenerates Figure 2: on-chip, off-chip
// and total memory energy versus cache size (1 KB-1 MB) for the parser-like
// workload. The paper's observation — off-chip energy falls steeply then
// flattens while cache energy keeps growing, giving the total a knee — is
// reported as the knee position.
func BenchmarkFigure2EnergyVsCacheSize(b *testing.B) {
	p := energy.DefaultParams()
	_, data := trace.Split(trace.NewSliceSource(workload.ParserLike().Generate(benchAccesses)))
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10,
		64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cache.GenericConfig{SizeBytes: sizes[i%len(sizes)], Ways: 1, LineBytes: 32}
		g := cache.MustGeneric(cfg)
		for _, a := range data {
			g.Access(a.Addr, a.IsWrite())
		}
	}
	b.StopTimer()

	knee, kneeE := 0, 0.0
	for _, size := range sizes {
		cfg := cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32}
		g := cache.MustGeneric(cfg)
		for _, a := range data {
			g.Access(a.Addr, a.IsWrite())
		}
		br := p.GenericEvaluate(cfg, g.Stats())
		b.Logf("size=%4dKB cache=%.3fmJ offchip=%.3fmJ total=%.3fmJ",
			size/1024, br.OnChip()*1e3, br.OffChip()*1e3, br.Total()*1e3)
		if knee == 0 || br.Total() < kneeE {
			knee, kneeE = size, br.Total()
		}
	}
	b.ReportMetric(float64(knee)/1024, "kneeKB")
}

// benchFigure34 regenerates Figures 3 and 4: average miss rate and
// normalised fetch energy over the 18 base configurations. The reported
// metric is the max/min energy spread across configurations — the paper's
// "factor of two or more" size impact.
func benchFigure34(b *testing.B, kind string) {
	p := energy.DefaultParams()
	streams := benchStreams()
	var sel []benchStream
	for _, s := range streams {
		if s.kind == kind {
			sel = append(sel, s)
		}
	}
	configs := cache.BaseConfigs()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sel[i%len(sel)]
		cfg := configs[i%len(configs)]
		c := cache.MustConfigurable(cfg)
		for _, a := range s.accs {
			c.Access(a.Addr, a.IsWrite())
		}
	}
	b.StopTimer()

	minE, maxE := 0.0, 0.0
	for _, cfg := range configs {
		var mr, e float64
		for _, s := range sel {
			c := cache.MustConfigurable(cfg)
			for _, a := range s.accs {
				c.Access(a.Addr, a.IsWrite())
			}
			st := c.Stats()
			mr += st.MissRate()
			e += p.Total(cfg, st)
		}
		mr /= float64(len(sel))
		b.Logf("%-10v avg-miss=%5.2f%% energy=%.4gmJ", cfg, 100*mr, e*1e3)
		if minE == 0 || e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	b.ReportMetric(maxE/minE, "energy-spread")
}

// BenchmarkFigure3InstructionSweep regenerates Figure 3 (I-cache).
func BenchmarkFigure3InstructionSweep(b *testing.B) { benchFigure34(b, "I") }

// BenchmarkFigure4DataSweep regenerates Figure 4 (D-cache).
func BenchmarkFigure4DataSweep(b *testing.B) { benchFigure34(b, "D") }

// BenchmarkTable1Heuristic regenerates Table 1: the heuristic's choice,
// configurations examined and energy savings versus the 8 KB 4-way base for
// every benchmark and cache. Metrics: average configurations examined
// (paper: ~5.4-5.8), fraction of selections identical to the paper's, and
// average savings.
func BenchmarkTable1Heuristic(b *testing.B) {
	p := energy.DefaultParams()
	streams := benchStreams()
	base := cache.BaseConfig()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%len(streams)]
		tuner.SearchPaper(tuner.NewTraceEvaluator(s.accs, p))
	}
	b.StopTimer()

	var examined, matches int
	var saveI, saveD float64
	var nI, nD int
	for _, s := range streams {
		ev := tuner.NewTraceEvaluator(s.accs, p)
		res := tuner.SearchPaper(ev)
		examined += res.NumExamined()
		if res.Best.Cfg.String() == s.paper {
			matches++
		}
		save := 1 - res.Best.Energy/ev.Evaluate(base).Energy
		if s.kind == "I" {
			saveI += save
			nI++
		} else {
			saveD += save
			nD++
		}
		b.Logf("%-9s %s chose %-12v (paper %-12s) examined=%d save=%.1f%%",
			s.name, s.kind, res.Best.Cfg, s.paper, res.NumExamined(), 100*save)
	}
	b.ReportMetric(float64(examined)/float64(len(streams)), "avg-examined")
	b.ReportMetric(float64(matches)/float64(len(streams)), "paper-match-frac")
	b.ReportMetric(100*saveI/float64(nI), "avg-I-save-pct")
	b.ReportMetric(100*saveD/float64(nD), "avg-D-save-pct")
}

// BenchmarkHeuristicVsExhaustive regenerates §4's quality claim: the
// heuristic finds the optimum in nearly all cases and never misses by much.
func BenchmarkHeuristicVsExhaustive(b *testing.B) {
	p := energy.DefaultParams()
	streams := benchStreams()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%len(streams)]
		ev := tuner.NewTraceEvaluator(s.accs, p)
		tuner.SearchPaper(ev)
		tuner.Exhaustive(ev)
	}
	b.StopTimer()

	misses, worst := 0, 1.0
	for _, s := range streams {
		ev := tuner.NewTraceEvaluator(s.accs, p)
		h := tuner.SearchPaper(ev)
		x := tuner.Exhaustive(ev)
		if h.Best.Cfg != x.Best.Cfg {
			misses++
			b.Logf("%s %s: heuristic %v vs optimal %v (%.1f%% worse)",
				s.name, s.kind, h.Best.Cfg, x.Best.Cfg, 100*(h.Best.Energy/x.Best.Energy-1))
		}
		if r := h.Best.Energy / x.Best.Energy; r > worst {
			worst = r
		}
	}
	b.ReportMetric(float64(misses), "optimum-misses")
	b.ReportMetric(100*(worst-1), "worst-excess-pct")
}

// BenchmarkAlternativeOrdering regenerates §4's ordering comparison: the
// strawman order (line, assoc, pred, size) misses the optimum far more
// often than the paper's size-first order.
func BenchmarkAlternativeOrdering(b *testing.B) {
	p := energy.DefaultParams()
	streams := benchStreams()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%len(streams)]
		tuner.Search(tuner.NewTraceEvaluator(s.accs, p), tuner.AlternativeOrder)
	}
	b.StopTimer()

	var paperMiss, altMiss int
	for _, s := range streams {
		ev := tuner.NewTraceEvaluator(s.accs, p)
		opt := tuner.Exhaustive(ev).Best.Cfg
		if tuner.Search(ev, tuner.PaperOrder).Best.Cfg != opt {
			paperMiss++
		}
		if tuner.Search(ev, tuner.AlternativeOrder).Best.Cfg != opt {
			altMiss++
		}
	}
	b.Logf("of %d streams: paper order missed %d optima, alternative order missed %d",
		len(streams), paperMiss, altMiss)
	b.ReportMetric(float64(paperMiss), "paper-order-misses")
	b.ReportMetric(float64(altMiss), "alt-order-misses")
}

// BenchmarkTunerHardware regenerates §4's hardware cost results: gate
// count (~4k), area (~0.039 mm², ~3% of a MIPS 4Kp), power (2.69 mW, ~0.5%
// of the core), 64 cycles per configuration and a few nJ per search.
func BenchmarkTunerHardware(b *testing.B) {
	p := energy.DefaultParams()
	prof, _ := workload.ByName("g721")
	inst, _ := trace.Split(trace.NewSliceSource(prof.Generate(benchAccesses)))
	ev := tuner.NewTraceEvaluator(inst, p)
	measure := func(cfg cache.Config) tuner.Measurement {
		return tuner.MeasurementFromStats(cfg, ev.Evaluate(cfg).Stats, p)
	}

	b.ResetTimer()
	var f *tuner.FSMD
	for i := 0; i < b.N; i++ {
		f = tuner.NewFSMD(p)
		f.Run(measure)
	}
	b.StopTimer()

	hw := tuner.NewHardwareModel()
	searchE := hw.SearchEnergy(p, f.EvaluationCycles(), f.NumSearch)
	b.Logf("gates=%d area=%.4fmm2 (%.1f%% of MIPS 4Kp) power=%.2fmW (%.2f%% of core)",
		hw.Gates(), hw.AreaMM2(p.Tech), 100*hw.AreaOverheadVsMIPS(p.Tech),
		hw.PowerWatts*1e3, 100*hw.PowerOverheadVsMIPS())
	b.Logf("search: %d configs x %d cycles = %.2f nJ", f.NumSearch, f.EvaluationCycles(), searchE*1e9)
	b.ReportMetric(float64(hw.Gates()), "gates")
	b.ReportMetric(float64(f.EvaluationCycles()), "cycles-per-config")
	b.ReportMetric(searchE*1e9, "search-nJ")
}

// BenchmarkFlushAblation regenerates §4's flush-cost comparison: searching
// sizes largest-first forces dirty writebacks whose energy dwarfs the
// tuner's own (the paper reports ~48,000x).
func BenchmarkFlushAblation(b *testing.B) {
	p := energy.DefaultParams()
	var datas [][]trace.Access
	for _, name := range []string{"blit", "brev", "ucbqsort", "mpeg2"} {
		prof, _ := workload.ByName(name)
		_, d := trace.Split(trace.NewSliceSource(prof.Generate(benchAccesses)))
		datas = append(datas, d)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.FlushAblation(datas[i%len(datas)], p, 0)
	}
	b.StopTimer()

	var ratios float64
	for i, d := range datas {
		r := tuner.FlushAblation(d, p, 0)
		ratios += r.Ratio
		b.Logf("stream %d: %d settle writebacks = %.3g J vs tuner %.3g J (%.0fx)",
			i, r.SettleWritebacks, r.WritebackEnergy, r.TunerEnergy, r.Ratio)
	}
	b.ReportMetric(ratios/float64(len(datas)), "writeback-vs-tuner-x")
}

// BenchmarkMultilevelHeuristic regenerates §3.4's multilevel example: the
// heuristic tunes the three line sizes of a two-level hierarchy in at most
// 10 simulations instead of the 64 of brute force, within a few percent.
func BenchmarkMultilevelHeuristic(b *testing.B) {
	p := energy.DefaultParams()
	accs := workload.ParserLike().Generate(benchAccesses)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.MultilevelSearch(sim.HierarchyEvaluator(accs, p), sim.LineParams())
	}
	b.StopTimer()

	eval := sim.HierarchyEvaluator(accs, p)
	h := tuner.MultilevelSearch(eval, sim.LineParams())
	bf := tuner.MultilevelBruteForce(eval, sim.LineParams())
	b.Logf("heuristic %v in %d sims; brute force %v in %d sims; ratio %.3f",
		h.Best, h.Examined, bf.Best, bf.Examined, h.BestEnergy/bf.BestEnergy)
	b.ReportMetric(float64(h.Examined), "heuristic-sims")
	b.ReportMetric(float64(bf.Examined), "bruteforce-sims")
	b.ReportMetric(h.BestEnergy/bf.BestEnergy, "energy-ratio")
}

// BenchmarkWayPredictionAccuracy regenerates §3.3's accuracy claim:
// MRU way prediction is ~90% accurate for instruction caches and ~70% for
// data caches.
func BenchmarkWayPredictionAccuracy(b *testing.B) {
	cfg := cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 16, WayPredict: true}
	streams := benchStreams()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%len(streams)]
		c := cache.MustConfigurable(cfg)
		for _, a := range s.accs {
			c.Access(a.Addr, a.IsWrite())
		}
	}
	b.StopTimer()

	var accI, accD float64
	var nI, nD int
	for _, s := range streams {
		c := cache.MustConfigurable(cfg)
		for _, a := range s.accs {
			c.Access(a.Addr, a.IsWrite())
		}
		acc := c.Stats().PredAccuracy()
		if s.kind == "I" {
			accI += acc
			nI++
		} else {
			accD += acc
			nD++
		}
	}
	b.Logf("average MRU accuracy at %v: I$=%.1f%% D$=%.1f%% (paper: ~90%% / ~70%%)",
		cfg, 100*accI/float64(nI), 100*accD/float64(nD))
	b.ReportMetric(100*accI/float64(nI), "I-accuracy-pct")
	b.ReportMetric(100*accD/float64(nD), "D-accuracy-pct")
}

// BenchmarkOnlineTuningSession times a complete no-flush on-line tuning
// session on a live cache (the §3.5 hardware behaviour end to end).
func BenchmarkOnlineTuningSession(b *testing.B) {
	p := energy.DefaultParams()
	prof, _ := workload.ByName("adpcm")
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(600_000)))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cache.MustConfigurable(cache.MinConfig())
		o := tuner.NewOnline(c, p, tuner.OnlineOptions{Window: 10_000})
		for _, a := range data {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
		}
		if !o.Done() {
			b.Fatal("session did not complete")
		}
	}
	b.StopTimer()

	c := cache.MustConfigurable(cache.MinConfig())
	o := tuner.NewOnline(c, p, tuner.OnlineOptions{Window: 10_000})
	for _, a := range data {
		if o.Done() {
			break
		}
		o.Access(a.Addr, a.IsWrite())
	}
	b.Logf("online session: chose %v after %d configurations, %d settle writebacks",
		o.Result().Best.Cfg, o.Result().NumExamined(), o.SettleWritebacks())
	b.ReportMetric(float64(o.Result().NumExamined()), "configs-examined")
}

// BenchmarkCacheAccess is the raw simulator microbenchmark.
func BenchmarkCacheAccess(b *testing.B) {
	for _, s := range []string{"2K_1W_16B", "8K_4W_32B", "8K_4W_16B_P"} {
		cfg, err := cache.ParseConfig(s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s, func(b *testing.B) {
			c := cache.MustConfigurable(cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(uint32(i*64), i%8 == 0)
			}
		})
	}
}

var sinkEnergy float64

// BenchmarkEnergyEvaluate times Equation 1 evaluation.
func BenchmarkEnergyEvaluate(b *testing.B) {
	p := energy.DefaultParams()
	st := cache.Stats{Accesses: 100_000, Hits: 98_000, Misses: 2_000, SublinesFilled: 4_000, Writebacks: 500}
	cfg := cache.BaseConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEnergy = p.Total(cfg, st)
	}
	_ = fmt.Sprint(sinkEnergy)
}

// BenchmarkScalableSpace runs the §3.4 larger-cache study: the heuristic on
// an 8-bank geometry (4-32 KB, up to 8 ways, lines to 128 B; 64
// configurations) versus the exhaustive optimum.
func BenchmarkScalableSpace(b *testing.B) {
	p := energy.DefaultParams()
	geo := cache.Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	streams := benchStreams()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%len(streams)]
		tuner.SearchScalable(geo, s.accs, p)
	}
	b.StopTimer()

	misses, examined := 0, 0
	for _, s := range streams {
		ev := tuner.NewScalableEvaluator(geo, s.accs, p)
		h := tuner.SearchInSpace(ev, tuner.PaperOrder, tuner.GeometrySpace(geo))
		x := tuner.ExhaustiveConfigs(ev, geo.Configs())
		examined += h.NumExamined()
		if h.Best.Cfg != x.Best.Cfg {
			misses++
			b.Logf("%s %s: heuristic %v vs optimal %v (%.0f%% worse)",
				s.name, s.kind, h.Best.Cfg, x.Best.Cfg, 100*(h.Best.Energy/x.Best.Energy-1))
		}
	}
	b.Logf("64-config space: avg examined %.1f, optimum missed on %d of %d streams",
		float64(examined)/float64(len(streams)), misses, len(streams))
	b.ReportMetric(float64(examined)/float64(len(streams)), "avg-examined-of-64")
	b.ReportMetric(float64(misses), "optimum-misses")
}

// BenchmarkSweepSerialVsParallel times the exhaustive 27-configuration sweep
// through the replay engine at one worker versus GOMAXPROCS workers. The
// results are checked bit-identical before timing; on a multicore machine the
// parallel sub-benchmark's ns/op should drop roughly linearly with cores.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	p := energy.DefaultParams()
	prof, _ := workload.ByName("mpeg2")
	_, data := trace.Split(trace.NewSliceSource(prof.Generate(benchAccesses)))
	configs := cache.AllConfigs()

	serial := tuner.ExhaustiveWorkers(tuner.NewTraceEvaluator(data, p), configs, 1)
	parallel := tuner.ExhaustiveWorkers(tuner.NewTraceEvaluator(data, p), configs, runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial, parallel) {
		b.Fatal("parallel sweep is not bit-identical to the serial sweep")
	}

	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh evaluator per iteration so the memo
				// cannot short-circuit the replays being timed.
				tuner.ExhaustiveWorkers(tuner.NewTraceEvaluator(data, p), configs, w)
			}
		})
	}
}
