package experiments

import (
	"fmt"
	"strconv"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/faults"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// The robustness study: how well does the paper-order heuristic hold up when
// the world misbehaves? Each Monte Carlo trial builds one "bad day" — a
// corrupted reference stream, a cache instance with a structural defect, and
// a counter readout that glitches — runs the full self-tuning loop on it,
// and scores the configuration the loop settled on against the CLEAN
// offline optimum. The headline number is the fraction of trials whose
// choice lands within Tolerance of that optimum: the loop's useful-output
// rate under faults, not merely its crash-free rate.

// FaultSweepOptions parameterises the Monte Carlo sweep.
type FaultSweepOptions struct {
	// N is the trace length generated per benchmark.
	N int
	// Rates are the fault intensities swept, typically starting at 0 (the
	// control row: it must reproduce the clean heuristic exactly). The
	// single knob scales every injector family; see rate-to-injector
	// mapping in trial().
	Rates []float64
	// Trials is the number of Monte Carlo trials per (benchmark, rate).
	Trials int
	// Seed roots every per-trial fault seed. The sweep is a pure function
	// of (options, seed): bit-identical across runs and worker counts.
	Seed uint64
	// Tolerance is the "good outcome" threshold: a trial succeeds when its
	// chosen configuration's clean whole-trace energy is within Tolerance
	// of the clean optimum. Zero means the 5% default.
	Tolerance float64
	// Benchmarks selects profile names; nil means all of them.
	Benchmarks []string
}

// FaultCell aggregates the trials of one (benchmark, rate) pair.
type FaultCell struct {
	Bench       string
	Rate        float64
	Trials      int
	WithinTol   int     // trials whose choice is within Tolerance of the clean optimum
	Degraded    int     // trials that abandoned tuning and fell back to SafeConfig
	AvgExcess   float64 // mean of chosen/optimal - 1, measured clean
	WorstExcess float64
}

// FaultSweepResult is the whole sweep.
type FaultSweepResult struct {
	Tolerance float64
	Cells     []FaultCell
}

// FaultSweepWorkers fans the per-benchmark baselines and the Monte Carlo
// trials out across workers goroutines. Every per-trial random decision is
// derived from (Seed, benchmark, rate index, trial index), so the result is
// bit-identical at any worker count.
func FaultSweepWorkers(opt FaultSweepOptions, workers int) FaultSweepResult {
	if opt.Tolerance == 0 {
		opt.Tolerance = 0.05
	}
	names := opt.Benchmarks
	if names == nil {
		for _, prof := range workload.Profiles() {
			names = append(names, prof.Name)
		}
	}
	p := energy.DefaultParams()

	// Per benchmark, the clean reference: the data stream, a shared
	// (memoised, concurrency-safe) clean evaluator, and the clean optimum
	// every trial is scored against.
	type bench struct {
		name string
		accs []trace.Access
		ev   *tuner.TraceEvaluator
		opt  float64
	}
	benches := engine.Parallel(len(names), workers, func(i int) bench {
		prof, ok := workload.ByName(names[i])
		if !ok {
			panic("experiments: unknown benchmark " + names[i])
		}
		data := trace.OnlyData(prof.Generate(opt.N))
		ev := tuner.NewTraceEvaluator(data, p)
		return bench{names[i], data, ev, tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), workers).Best.Energy}
	})

	// One flat trial list; the reduction below walks it in input order.
	type trialOutcome struct {
		bench, rate int
		excess      float64
		degraded    bool
	}
	total := len(benches) * len(opt.Rates) * opt.Trials
	trials := engine.Parallel(total, workers, func(i int) trialOutcome {
		ti := i % opt.Trials
		ri := (i / opt.Trials) % len(opt.Rates)
		bi := i / (opt.Trials * len(opt.Rates))
		b, rate := benches[bi], opt.Rates[ri]
		seed := faults.Derive(opt.Seed, b.name, strconv.Itoa(ri), strconv.Itoa(ti))

		res := trial(b.accs, p, rate, seed)
		chosen := b.ev.Evaluate(res.Best.Cfg)
		return trialOutcome{bi, ri, chosen.Energy/b.opt - 1, res.Degraded}
	})

	out := FaultSweepResult{Tolerance: opt.Tolerance}
	cells := make([]FaultCell, len(benches)*len(opt.Rates))
	for i := range cells {
		cells[i] = FaultCell{Bench: benches[i/len(opt.Rates)].name, Rate: opt.Rates[i%len(opt.Rates)]}
	}
	for _, tr := range trials {
		c := &cells[tr.bench*len(opt.Rates)+tr.rate]
		c.Trials++
		c.AvgExcess += tr.excess
		if tr.excess > c.WorstExcess {
			c.WorstExcess = tr.excess
		}
		if tr.excess <= opt.Tolerance {
			c.WithinTol++
		}
		if tr.degraded {
			c.Degraded++
		}
	}
	for i := range cells {
		if cells[i].Trials > 0 {
			cells[i].AvgExcess /= float64(cells[i].Trials)
		}
	}
	out.Cells = cells
	return out
}

// trial runs one faulted self-tuning loop: the single rate knob fans out
// into all three injector families — trace corruption on the reference
// stream, a per-instance structural defect, and per-reading measurement
// faults — and the heuristic runs with the engine's retry and the tuner's
// re-measure/degrade policy armed, exactly as a deployment would.
func trial(accs []trace.Access, p *energy.Params, rate float64, seed uint64) tuner.SearchResult {
	faulted := faults.Trace{
		Seed:        seed,
		BitFlipRate: rate,
		DropRate:    rate / 2,
		DupRate:     rate / 2,
	}.Apply(accs)

	plan := faults.Structural{
		Seed:         seed,
		StuckOffRate: rate / 2,
		StuckOnRate:  rate / 2,
	}.Plan()

	mf := &faults.Measurement{
		Seed:      seed,
		NoiseRate: rate,
		StuckRate: rate / 4,
		CrashRate: rate / 4,
	}

	model := faults.Wrap(plan.Wrap(engine.Configurable(p), p), mf)
	eng := engine.New(faulted, model)
	eng.Retry = engine.RetryPolicy{Attempts: 2}
	return tuner.SearchPaper(tuner.EngineEvaluator{Eng: eng})
}

// Table renders the sweep, one row per (benchmark, rate).
func (r FaultSweepResult) Table() *report.Table {
	tb := report.NewTable("Ben.", "rate", "trials",
		fmt.Sprintf("within %s", report.Pct(r.Tolerance)), "degraded", "avg-excess", "worst-excess")
	for _, c := range r.Cells {
		tb.Add(c.Bench, fmt.Sprintf("%g", c.Rate), fmt.Sprint(c.Trials),
			fmt.Sprintf("%d/%d", c.WithinTol, c.Trials), fmt.Sprint(c.Degraded),
			report.Pct(c.AvgExcess), report.Pct(c.WorstExcess))
	}
	return tb
}
