package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/experiments"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// fig2Sizes is the number of direct-mapped sizes the Figure 2 sweep
// evaluates (1 KB to 1 MB).
const fig2Sizes = 11

// offlineInput is the reproduction's input: one seeded stream per Table 1
// profile and the parser-like stream for Figure 2.
type offlineInput struct {
	names   []string
	streams [][]trace.Access
	parser  []trace.Access
}

func (in offlineInput) accesses() int {
	n := len(in.parser)
	for _, s := range in.streams {
		n += len(s)
	}
	return n
}

func genOffline(c config) (offlineInput, error) {
	profs := workload.Profiles()
	in := offlineInput{names: make([]string, len(profs)), streams: make([][]trace.Access, len(profs))}
	err := parallelFor(len(profs)+1, func(i int) error {
		if i == len(profs) {
			p := *workload.ParserLike()
			p.Seed = derive(c.seed, c.workload, p.Name)
			in.parser = p.Generate(c.fig2Len)
			return nil
		}
		p := *profs[i]
		p.Seed = derive(c.seed, c.workload, p.Name)
		in.names[i] = p.Name
		in.streams[i] = p.Generate(c.offlineLen)
		return nil
	})
	return in, err
}

// offlineRef is the reproduction's expected output, computed by direct
// tuner and engine calls outside the timed phase.
type offlineRef struct {
	rows []experiments.Table1Row
	// fusedOK marks streams whose default-kernel and fused 27-config sweeps
	// are bit-identical.
	fusedOK []bool
	// missesPerWindow is each I and D half's heuristic pick's misses per
	// default measurement window.
	missesPerWindow []float64
	fig2            []experiments.Fig2Point
}

func offlineReference(in offlineInput, p *energy.Params) (*offlineRef, error) {
	ref := &offlineRef{
		rows:            make([]experiments.Table1Row, len(in.streams)),
		fusedOK:         make([]bool, len(in.streams)),
		missesPerWindow: make([]float64, 2*len(in.streams)),
	}
	err := parallelFor(len(in.streams), func(i int) error {
		inst, data := trace.Split(trace.NewSliceSource(in.streams[i]))
		ih, iOpt, iSave, iMiss, iFused := directHalf(inst, p)
		dh, dOpt, dSave, dMiss, dFused := directHalf(data, p)
		ref.rows[i] = experiments.Table1Row{
			Name: in.names[i], ICfg: ih.Best.Cfg, DCfg: dh.Best.Cfg,
			INum: ih.NumExamined(), DNum: dh.NumExamined(),
			ISave: iSave, DSave: dSave, IOpt: iOpt, DOpt: dOpt,
		}
		ref.fusedOK[i] = iFused && dFused
		ref.missesPerWindow[2*i], ref.missesPerWindow[2*i+1] = iMiss, dMiss
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, data := trace.Split(trace.NewSliceSource(in.parser))
	m := engine.Generic(p)
	m.NoDrain = true
	var cfgs []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		cfgs = append(cfgs, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	for _, r := range engine.Sweep(data, m, cfgs, 1) {
		if r.Err != nil {
			return nil, r.Err
		}
		ref.fig2 = append(ref.fig2, experiments.Fig2Point{SizeBytes: r.Cfg.SizeBytes,
			OnChip: r.Breakdown.OnChip(), OffChip: r.Breakdown.OffChip(), Total: r.Breakdown.Total()})
	}
	return ref, nil
}

// directHalf runs one cache's Table 1 computation by direct tuner calls:
// the heuristic, the exhaustive optimum and the saving versus the base. It
// also sweeps all 27 configurations with the fused kernel and reports
// whether that is bit-identical to the default kernel's sweep.
func directHalf(s []trace.Access, p *energy.Params) (h tuner.SearchResult, opt cache.Config, save, missesPerWindow float64, fusedOK bool) {
	ev := tuner.NewTraceEvaluator(s, p)
	h = tuner.SearchPaper(ev)
	opt = tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), 1).Best.Cfg
	save = 1 - h.Best.Energy/ev.Evaluate(cache.BaseConfig()).Energy
	def := ev.EvaluateAll(cache.AllConfigs(), 1)
	fused := engine.New(s, engine.Configurable(p), engine.WithFusedSweep()).EvaluateAll(cache.AllConfigs(), 1)
	fusedOK = reflect.DeepEqual(def, fused)
	missesPerWindow = float64(h.Best.Stats.Misses) / float64(len(s)) * missWindow
	return h, opt, save, missesPerWindow, fusedOK
}

// offlineRep is one timed reproduction: every Table 1 row, then Figure 2.
type offlineRep struct {
	rows  []experiments.Table1Row
	fig2  []experiments.Fig2Point
	times []float64 // per row, then Figure 2, seconds
	total time.Duration
}

func reproduce(ctx context.Context, in offlineInput, p *energy.Params, spans *spanLog) (offlineRep, error) {
	var rep offlineRep
	t0 := time.Now()
	for i, s := range in.streams {
		r0 := time.Now()
		res, err := experiments.Table1TraceCtx(ctx, in.names[i], s, p, 1)
		if err != nil {
			return rep, err
		}
		r1 := time.Now()
		spans.add(0, 0, in.names[i], "experiments.table1_row", r0, r1)
		rep.rows = append(rep.rows, res.Rows[0])
		rep.times = append(rep.times, r1.Sub(r0).Seconds())
	}
	f0 := time.Now()
	fig2, err := experiments.Figure2TraceCtx(ctx, "parser", in.parser, p, 1)
	if err != nil {
		return rep, err
	}
	f1 := time.Now()
	spans.add(0, 0, "parser", "experiments.figure2", f0, f1)
	rep.fig2 = fig2
	rep.times = append(rep.times, f1.Sub(f0).Seconds())
	rep.total = f1.Sub(t0)
	return rep, nil
}

// check counts the rep's outputs that differ from the reference.
func (ref *offlineRef) check(rep offlineRep) (attempted, failed int) {
	for i, row := range rep.rows {
		attempted++
		if row != ref.rows[i] || !ref.fusedOK[i] {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: Table 1 row %s failed its check (fused identical: %v): got %+v want %+v\n",
				row.Name, ref.fusedOK[i], row, ref.rows[i])
		}
	}
	attempted++
	if !reflect.DeepEqual(rep.fig2, ref.fig2) {
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: Figure 2 sweep differs from the direct engine sweep")
	}
	return attempted, failed
}

// runOffline is the end-to-end run of offline-reproduce: reps of set-up
// (stream generation) and the timed reproduction at workers=1, each checked
// against the reference.
func runOffline(c config) (outcome, error) {
	params := energy.DefaultParams()
	ctx := context.Background()
	var (
		out                                  outcome
		ref                                  *offlineRef
		setups, totals, rates, items, ratios []float64
		measured                             time.Duration
		start                                = time.Now()
	)
	for rep := 0; rep < c.minRounds || measured.Seconds() < c.seconds; rep++ {
		if rep > 0 && time.Since(start) > maxRunTime {
			break
		}
		t0 := time.Now()
		in, err := genOffline(c)
		if err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref == nil {
			if ref, err = offlineReference(in, params); err != nil {
				return out, err
			}
			if c.corruptRef {
				ref.rows[0].INum++
			}
		}
		runtime.GC() // set-up garbage is collected before, not during, the timed phase
		r, err := reproduce(ctx, in, params, nil)
		if err != nil {
			return out, err
		}
		a, f := ref.check(r)
		out.attempted += a
		out.failed += f
		measured += r.total
		totals = append(totals, r.total.Seconds())
		rates = append(rates, float64(in.accesses())/r.total.Seconds())
		items = append(items, r.times...)
		if rep == 0 {
			for _, row := range r.rows {
				ratios = append(ratios, 1-(row.ISave+row.DSave)/2)
			}
		}
	}
	out.set("ingest_accesses_per_s", median(rates), "1/s")
	out.set("delivery_s_p50", quantile(items, 0.5), "s")
	out.set("delivery_s_p90", quantile(items, 0.9), "s")
	out.set("reproduce_s", median(totals), "s")
	out.set("setup_s", median(setups), "s")
	out.set("settled_misses_per_window", mean(ref.missesPerWindow), "count")
	out.set("energy_pct_of_base", 100*mean(ratios), "%")
	out.note("reps", len(totals))
	out.note("delivery_samples", len(items))
	out.note("measured_s", measured.Seconds())
	return out, nil
}
