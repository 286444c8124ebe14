// Package experiments produces the paper's tables and figures as data — the
// cmd tools and bench harness render them, and the package's tests pin the
// reproduction-quality invariants (match counts, averages, curve shapes)
// independently of any output format.
//
// All replay is delegated to internal/engine: each experiment builds
// configuration lists and streams, fans them out across the engine's worker
// pool, and reduces the results in deterministic input order, so every
// function is bit-identical at any worker count.
package experiments

import (
	"context"
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// Table1Row is one benchmark's row of the paper's Table 1.
type Table1Row struct {
	Name           string
	ICfg, DCfg     cache.Config
	INum, DNum     int
	ISave, DSave   float64 // energy savings vs the 8K 4-way base
	IOpt, DOpt     cache.Config
	PaperI, PaperD string
}

// Table1Result is the whole table plus its summary line.
type Table1Result struct {
	Rows                 []Table1Row
	AvgINum, AvgDNum     float64
	AvgISave, AvgDSave   float64
	PaperMatches         int // of 2*len(Rows) per-cache selections
	OptimumMisses        int
	WorstOptimumExcess   float64 // heuristic/optimal - 1, worst stream
	AccessesPerBenchmark int
}

// Table1 regenerates the paper's Table 1 over the 19 benchmark profiles
// with the default worker count.
func Table1(n int, p *energy.Params) Table1Result { return Table1Workers(n, p, 0) }

// Table1Workers regenerates Table 1 fanning the benchmarks (and each
// benchmark's exhaustive baseline) out across workers goroutines.
func Table1Workers(n int, p *energy.Params, workers int) Table1Result {
	res, err := Table1Ctx(context.Background(), n, p, workers)
	if err != nil {
		// Unreachable for a background context short of a worker crash,
		// which the context-free API has no way to report.
		panic(err)
	}
	return res
}

// Table1Ctx is Table1Workers under a context: a deadline or cancellation
// aborts the run between benchmarks and returns the context's error. This
// is what the cmd tools' -timeout flags call.
func Table1Ctx(ctx context.Context, n int, p *energy.Params, workers int) (Table1Result, error) {
	profiles := workload.Profiles()

	// benchOutcome carries what one benchmark contributes to the table:
	// its row plus the heuristic/optimal excess per cache stream.
	type benchOutcome struct {
		row              Table1Row
		iExcess, dExcess float64
	}
	outcomes, err := engine.ParallelErr(ctx, len(profiles), workers, func(i int) (benchOutcome, error) {
		prof := profiles[i]
		inst, data := trace.Split(trace.NewSliceSource(prof.Generate(n)))
		row, iExcess, dExcess := table1Row(prof.Name, inst, data, p, workers)
		row.PaperI, row.PaperD = prof.Paper.ICfg, prof.Paper.DCfg
		return benchOutcome{row: row, iExcess: iExcess, dExcess: dExcess}, nil
	})
	if err != nil {
		return Table1Result{}, err
	}

	res := Table1Result{AccessesPerBenchmark: n}
	for _, o := range outcomes {
		row := o.row
		res.Rows = append(res.Rows, row)
		res.AvgINum += float64(row.INum)
		res.AvgDNum += float64(row.DNum)
		res.AvgISave += row.ISave
		res.AvgDSave += row.DSave
		if row.ICfg.String() == row.PaperI {
			res.PaperMatches++
		}
		if row.DCfg.String() == row.PaperD {
			res.PaperMatches++
		}
		for _, pair := range []struct {
			chosen, opt cache.Config
			excess      float64
		}{{row.ICfg, row.IOpt, o.iExcess}, {row.DCfg, row.DOpt, o.dExcess}} {
			if pair.chosen != pair.opt {
				res.OptimumMisses++
			}
			if pair.excess > res.WorstOptimumExcess {
				res.WorstOptimumExcess = pair.excess
			}
		}
	}
	k := float64(len(res.Rows))
	res.AvgINum /= k
	res.AvgDNum /= k
	res.AvgISave /= k
	res.AvgDSave /= k
	return res, nil
}

// Table renders the result in the paper's layout.
func (r Table1Result) Table() *report.Table {
	tb := report.NewTable("Ben.", "I-cache cfg.", "No.", "paper-I",
		"D-cache cfg.", "No.", "paper-D", "I-E%", "D-E%", "I-opt", "D-opt")
	mark := func(chosen, opt cache.Config) string {
		if chosen == opt {
			return "="
		}
		return opt.String()
	}
	for _, row := range r.Rows {
		tb.Add(row.Name,
			row.ICfg.String(), fmt.Sprint(row.INum), row.PaperI,
			row.DCfg.String(), fmt.Sprint(row.DNum), row.PaperD,
			report.Pct(row.ISave), report.Pct(row.DSave),
			mark(row.ICfg, row.IOpt), mark(row.DCfg, row.DOpt))
	}
	tb.Add("Average:", "", fmt.Sprintf("%.1f", r.AvgINum), "",
		"", fmt.Sprintf("%.1f", r.AvgDNum), "",
		report.Pct(r.AvgISave), report.Pct(r.AvgDSave), "", "")
	return tb
}

// Fig2Point is one cache size's energies in the Figure 2 sweep.
type Fig2Point struct {
	SizeBytes              int
	OnChip, OffChip, Total float64
}

// Figure2 sweeps direct-mapped caches 1 KB-1 MB over the parser-like
// workload's data stream with the default worker count.
func Figure2(n int, p *energy.Params) []Fig2Point { return Figure2Workers(n, p, 0) }

// Figure2Workers runs the Figure 2 size sweep fanned out across workers.
func Figure2Workers(n int, p *energy.Params, workers int) []Fig2Point {
	out, err := Figure2Ctx(context.Background(), n, p, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// Figure2Ctx is Figure2Workers under a context: a deadline or cancellation
// aborts the sweep (including mid-replay) and returns the context's error.
func Figure2Ctx(ctx context.Context, n int, p *energy.Params, workers int) ([]Fig2Point, error) {
	_, data := trace.Split(trace.NewSliceSource(workload.ParserLike().Generate(n)))
	return figure2Sweep(ctx, data, p, workers)
}

// figure2Sweep is the Figure 2 size sweep over an arbitrary data stream.
func figure2Sweep(ctx context.Context, data []trace.Access, p *energy.Params, workers int) ([]Fig2Point, error) {
	var cfgs []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		cfgs = append(cfgs, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	m := engine.Generic(p)
	// The figure reproduces the paper's raw per-size comparison, which
	// does not charge an end-of-interval drain.
	m.NoDrain = true
	results, err := engine.SweepCtx(ctx, data, m, cfgs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Fig2Point, len(results))
	for i, r := range results {
		out[i] = Fig2Point{r.Cfg.SizeBytes, r.Breakdown.OnChip(), r.Breakdown.OffChip(), r.Breakdown.Total()}
	}
	return out, nil
}

// Knee returns the size with the minimum total energy.
func Knee(points []Fig2Point) Fig2Point {
	best := points[0]
	for _, pt := range points[1:] {
		if pt.Total < best.Total {
			best = pt
		}
	}
	return best
}

// Fig34Row is one configuration's averages in the Figure 3/4 sweeps.
type Fig34Row struct {
	Cfg         cache.Config
	AvgMissRate float64
	Energy      float64 // summed over benchmarks
	Normalised  float64 // Energy / max over configurations
}

// Figure34 sweeps the 18 base configurations over all benchmarks with the
// default worker count; inst selects the instruction (Figure 3) or data
// (Figure 4) stream.
func Figure34(n int, inst bool, p *energy.Params) []Fig34Row {
	return Figure34Workers(n, inst, p, 0)
}

// Figure34Workers runs the Figure 3/4 sweep fanning the benchmarks (and
// each benchmark's 18-configuration sweep) out across workers.
func Figure34Workers(n int, inst bool, p *energy.Params, workers int) []Fig34Row {
	rows, err := Figure34Ctx(context.Background(), n, inst, p, workers)
	if err != nil {
		panic(err)
	}
	return rows
}

// Figure34Ctx is Figure34Workers under a context: a deadline or cancellation
// aborts the sweep (including mid-replay) and returns the context's error.
func Figure34Ctx(ctx context.Context, n int, inst bool, p *energy.Params, workers int) ([]Fig34Row, error) {
	configs := cache.BaseConfigs()
	profiles := workload.Profiles()
	m := engine.Configurable(p)
	// Like Figure 2, the figure compares raw per-configuration energy
	// without the end-of-interval drain.
	m.NoDrain = true
	perProfile, err := engine.ParallelErr(ctx, len(profiles), workers, func(pi int) ([]engine.Result[cache.Config], error) {
		i, d := trace.Split(trace.NewSliceSource(profiles[pi].Generate(n)))
		stream := d
		if inst {
			stream = i
		}
		return engine.SweepCtx(ctx, stream, m, configs, workers)
	})
	if err != nil {
		return nil, err
	}
	return reduceFig34(len(configs), perProfile), nil
}

// reduceFig34 averages per-stream sweeps into the figure's rows.
func reduceFig34(nConfigs int, perStream [][]engine.Result[cache.Config]) []Fig34Row {
	rows := make([]Fig34Row, nConfigs)
	for _, results := range perStream {
		for ci, r := range results {
			rows[ci].Cfg = r.Cfg
			rows[ci].AvgMissRate += r.Stats.MissRate()
			rows[ci].Energy += r.Energy
		}
	}
	maxE := 0.0
	for i := range rows {
		rows[i].AvgMissRate /= float64(len(perStream))
		if rows[i].Energy > maxE {
			maxE = rows[i].Energy
		}
	}
	for i := range rows {
		rows[i].Normalised = rows[i].Energy / maxE
	}
	return rows
}

// WindowPoint is one measurement-window length's outcome in the window
// sensitivity study: how good the online tuner's choice is (whole-trace
// energy relative to the offline optimum) and how long tuning takes.
type WindowPoint struct {
	Window          uint64
	AvgExcess       float64 // mean over streams of online/optimal - 1
	WorstExcess     float64
	AvgTuningLength float64 // accesses until the session settles
}

// WindowSensitivity studies the on-chip tuner's one free parameter with the
// default worker count: the per-configuration measurement interval. Short
// windows finish tuning sooner but measure noisier intervals; long windows
// converge to the offline decision. Run over every benchmark's data stream.
func WindowSensitivity(n int, windows []uint64, p *energy.Params) []WindowPoint {
	return WindowSensitivityWorkers(n, windows, p, 0)
}

// WindowSensitivityWorkers runs the window study fanning the benchmark
// streams (offline baselines and online sessions) out across workers.
func WindowSensitivityWorkers(n int, windows []uint64, p *energy.Params, workers int) []WindowPoint {
	type stream struct {
		accs []trace.Access
		opt  float64
		ev   *tuner.TraceEvaluator
	}
	profiles := workload.Profiles()
	streams := engine.Parallel(len(profiles), workers, func(i int) stream {
		prof := profiles[i]
		all := prof.Generate(n)
		steady := all[prof.InitAccesses:]
		_, data := trace.Split(trace.NewSliceSource(steady))
		ev := tuner.NewTraceEvaluator(data, p)
		opt := tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), workers).Best.Energy
		return stream{data, opt, ev}
	})

	// sessionOutcome is one (window, stream) online tuning session. The
	// online tuner drives a live cache, so the session itself is serial;
	// the sessions are independent and fan out.
	type sessionOutcome struct {
		excess  float64
		settled int
	}
	var out []WindowPoint
	for _, w := range windows {
		w := w
		sessions := engine.Parallel(len(streams), workers, func(si int) sessionOutcome {
			s := streams[si]
			c := cache.MustConfigurable(cache.MinConfig())
			o := tuner.NewOnline(c, p, tuner.OnlineOptions{Window: w})
			settled := 0
			for i, a := range s.accs {
				if o.Done() {
					break
				}
				o.Access(a.Addr, a.IsWrite())
				settled = i + 1
			}
			var excess float64
			if o.Done() {
				excess = s.ev.Evaluate(o.Result().Best.Cfg).Energy/s.opt - 1
			} else {
				// Never settled within the trace: charge the
				// starting configuration.
				o.Abort()
				excess = s.ev.Evaluate(cache.MinConfig()).Energy/s.opt - 1
			}
			return sessionOutcome{excess, settled}
		})
		pt := WindowPoint{Window: w}
		for _, se := range sessions {
			pt.AvgExcess += se.excess
			if se.excess > pt.WorstExcess {
				pt.WorstExcess = se.excess
			}
			pt.AvgTuningLength += float64(se.settled)
		}
		pt.AvgExcess /= float64(len(streams))
		pt.AvgTuningLength /= float64(len(streams))
		out = append(out, pt)
	}
	return out
}
