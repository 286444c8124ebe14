package experiments

import (
	"context"
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// This file is the recorded-trace entry point into the experiment suite:
// the same sweeps the synthetic-workload functions run, but over a stream
// the caller captured (a dineroIV-format file, typically). Each entry
// rejects an empty stream loudly — a recorded trace that parses to nothing
// means the wrong file or the wrong stream was selected, and silently
// producing a zero-row table buries that mistake.

// table1Row computes one Table 1 row over a pair of recorded streams: the
// heuristic's pick, the exhaustive optimum, and the savings versus the 8K
// 4-way base, for each cache. PaperI/PaperD are left empty — a recorded
// trace has no published reference selection.
func table1Row(name string, inst, data []trace.Access, p *energy.Params, workers int) table1Outcome {
	base := cache.BaseConfig()
	iev := tuner.NewTraceEvaluator(inst, p)
	dev := tuner.NewTraceEvaluator(data, p)
	// The exhaustive sweep runs first: it measures all 27 configurations in
	// one fused pass, so the heuristic and the base evaluation read the
	// memo instead of replaying the stream again.
	iOpt := tuner.ExhaustiveWorkers(iev, cache.AllConfigs(), workers).Best
	dOpt := tuner.ExhaustiveWorkers(dev, cache.AllConfigs(), workers).Best
	ih, dh := tuner.SearchPaper(iev), tuner.SearchPaper(dev)
	row := Table1Row{
		Name:  name,
		ICfg:  ih.Best.Cfg,
		DCfg:  dh.Best.Cfg,
		INum:  ih.NumExamined(),
		DNum:  dh.NumExamined(),
		ISave: 1 - ih.Best.Energy/iev.Evaluate(base).Energy,
		DSave: 1 - dh.Best.Energy/dev.Evaluate(base).Energy,
		IOpt:  iOpt.Cfg,
		DOpt:  dOpt.Cfg,
	}
	return table1Outcome{row, ih.Best.Energy/iOpt.Energy - 1, dh.Best.Energy/dOpt.Energy - 1}
}

// Table1TraceCtx computes a one-row Table 1 over a recorded trace's
// instruction and data streams. Both streams must be non-empty: the Table 1
// study tunes the I-cache and D-cache separately, so a trace missing either
// stream cannot fill the row.
func Table1TraceCtx(ctx context.Context, name string, accs []trace.Access, p *energy.Params, workers int) (Table1Result, error) {
	inst, data := trace.Split(accs)
	if len(inst) == 0 || len(data) == 0 {
		return Table1Result{}, fmt.Errorf(
			"experiments: trace %q has %d instruction and %d data accesses; Table 1 needs both streams (is this a data-only or instruction-only trace?)",
			name, len(inst), len(data))
	}
	if err := ctx.Err(); err != nil {
		return Table1Result{}, err
	}
	return summarizeTable1([]table1Outcome{table1Row(name, inst, data, p, workers)}, len(accs)), nil
}

// Figure2TraceCtx runs the Figure 2 direct-mapped size sweep over a recorded
// trace's data stream.
func Figure2TraceCtx(ctx context.Context, name string, accs []trace.Access, p *energy.Params, workers int) ([]Fig2Point, error) {
	data := trace.OnlyData(accs)
	if len(data) == 0 {
		return nil, fmt.Errorf("experiments: trace %q has no data accesses; the Figure 2 sweep measures the data cache", name)
	}
	return figure2Sweep(ctx, data, p, workers)
}

// Figure34TraceCtx sweeps the 18 base configurations over one stream of a
// recorded trace: the instruction stream for the Figure 3 shape, the data
// stream for Figure 4.
func Figure34TraceCtx(ctx context.Context, name string, accs []trace.Access, inst bool, p *energy.Params, workers int) ([]Fig34Row, error) {
	keep, which := trace.OnlyData, "data"
	if inst {
		keep, which = trace.OnlyInst, "instruction"
	}
	stream := keep(accs)
	if len(stream) == 0 {
		return nil, fmt.Errorf("experiments: trace %q has no %s accesses for this sweep", name, which)
	}
	configs := cache.BaseConfigs()
	m := engine.Configurable(p)
	m.NoDrain = true
	results, err := engine.SweepCtx(ctx, stream, m, configs, workers)
	if err != nil {
		return nil, err
	}
	return reduceFig34(len(configs), [][]engine.Result[cache.Config]{results}), nil
}
