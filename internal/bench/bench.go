// Package bench measures replay throughput of the fast kernels against the
// reference simulators on the repository's standard experiment shapes: the
// four-bank 27-configuration sweep (Table 1's inner loop) and the Figure 2
// direct-mapped size sweep. Timings are end to end through the engine — the
// number a sweep or tuning run actually experiences — taken best-of-Reps on
// fresh engines so the memo cannot serve a timed replay, and every timed
// pair doubles as a differential check: a run whose fast and reference
// results disagree is a measurement of a broken kernel and fails instead of
// reporting a speedup.
package bench

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/fastsim"
	"selftune/internal/report"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// Options shapes a benchmark run.
type Options struct {
	// N is the stream length per workload profile.
	N int
	// Reps is the number of timing repetitions per measurement; the best
	// (minimum) time is reported.
	Reps int
	// Workers is the sweep worker count. The acceptance measurement is
	// workers=1: raw single-thread replay throughput.
	Workers int
	// Profiles names the workload profiles to replay through the four-bank
	// sweep. Empty means a representative default set.
	Profiles []string
	// ScaleWorkers are the worker counts for the multi-worker scaling rows
	// (fused vs per-config on the first profile). Empty means {1, 2, 4}.
	ScaleWorkers []int
}

// quickDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 200_000
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []string{"crc", "adpcm", "mpeg2", "ucbqsort"}
	}
	if len(o.ScaleWorkers) == 0 {
		o.ScaleWorkers = []int{1, 2, 4}
	}
	return o
}

// Quick returns the CI-smoke options: short streams, one rerun.
func Quick() Options {
	return Options{N: 40_000, Reps: 2, Workers: 1, Profiles: []string{"crc", "mpeg2"}}
}

// Timing is one kernel's throughput on one measurement.
type Timing struct {
	Seconds        float64 `json:"seconds"`
	NsPerAccess    float64 `json:"ns_per_access"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
}

// ClassResult is one (config class, workload) measurement pair.
type ClassResult struct {
	// Class is the configuration class: "four-bank-27" (the paper's full
	// space at Table 1's inner loop) or "figure2-dm" (the 1 KB–1 MB
	// direct-mapped size sweep).
	Class string `json:"class"`
	// Profile is the workload profile replayed.
	Profile string `json:"profile"`
	// Configs and Accesses size the measurement: Accesses is stream length
	// times configurations, the work one kernel performs per rep.
	Configs  int   `json:"configs"`
	Accesses int64 `json:"accesses"`

	Reference Timing `json:"reference"`
	Fast      Timing `json:"fast"`
	// Speedup is fast accesses/sec over reference accesses/sec.
	Speedup float64 `json:"speedup"`

	// Fused, present on four-bank rows, is the fused single-pass kernel's
	// timing for the same sweep, and FusedSpeedup is fused over fast (the
	// per-config path) — the fused-vs-per-config acceptance ratio.
	Fused        *Timing `json:"fused,omitempty"`
	FusedSpeedup float64 `json:"fused_speedup,omitempty"`
}

// ScalingResult is one multi-worker scaling row: the full four-bank sweep
// at one worker count, per-config fast kernel versus the fused single pass.
// The fused pass is inherently serial (one lead replays for everyone), so
// these rows show where worker-parallel per-config replay catches up.
type ScalingResult struct {
	Profile   string `json:"profile"`
	Workers   int    `json:"workers"`
	Configs   int    `json:"configs"`
	Accesses  int64  `json:"accesses"`
	PerConfig Timing `json:"per_config"`
	Fused     Timing `json:"fused"`
	// Speedup is fused accesses/sec over per-config accesses/sec at this
	// worker count.
	Speedup float64 `json:"speedup"`
}

// Report is the machine-readable output (BENCH_10.json).
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	N           int    `json:"accesses_per_stream"`
	Reps        int    `json:"reps"`
	Workers     int    `json:"workers"`

	// KernelAllocsPerOp pins the allocation-free inner loop: heap
	// allocations per ReplayBatch call for each kernel family, measured
	// with testing.AllocsPerRun. Must be zero.
	KernelAllocsPerOp map[string]float64 `json:"kernel_allocs_per_op"`

	Classes []ClassResult `json:"classes"`

	// Scaling holds the multi-worker fused-vs-per-config rows.
	Scaling []ScalingResult `json:"scaling"`

	// FourBankSpeedup and Figure2Speedup are the per-class geometric means
	// over profiles. Figure2Speedup is the acceptance number: >= 2.
	FourBankSpeedup float64 `json:"four_bank_speedup"`
	Figure2Speedup  float64 `json:"figure2_speedup"`
	// OverallSpeedup is the geometric mean over every measurement.
	OverallSpeedup float64 `json:"overall_speedup"`
	// FusedSpeedup is the geometric mean of the four-bank rows'
	// fused-vs-per-config ratios at the report's worker count — the fused
	// acceptance number: >= 5 at workers=1.
	FusedSpeedup float64 `json:"fused_speedup"`
}

// Run executes the benchmark and returns the report. It fails (error, not a
// skewed number) if any timed fast run's results diverge from the reference
// run's.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	p := energy.DefaultParams()
	rep := &Report{
		GeneratedAt:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		N:                 opts.N,
		Reps:              opts.Reps,
		Workers:           opts.Workers,
		KernelAllocsPerOp: kernelAllocs(),
	}

	for _, name := range opts.Profiles {
		prof, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload profile %q", name)
		}
		data := trace.OnlyData(prof.Generate(opts.N))
		cr, err := measureFourBank(name, data, p, opts)
		if err != nil {
			return nil, err
		}
		rep.Classes = append(rep.Classes, cr)
	}

	parserData := trace.OnlyData(workload.ParserLike().Generate(opts.N))
	cr, err := measureFigure2("parser-like", parserData, p, opts)
	if err != nil {
		return nil, err
	}
	rep.Classes = append(rep.Classes, cr)

	scaleProfile := opts.Profiles[0]
	prof, _ := workload.ByName(scaleProfile)
	scaleData := trace.OnlyData(prof.Generate(opts.N))
	for _, workers := range opts.ScaleWorkers {
		sr, err := measureScaling(scaleProfile, scaleData, p, opts, workers)
		if err != nil {
			return nil, err
		}
		rep.Scaling = append(rep.Scaling, sr)
	}

	rep.FourBankSpeedup = geomean(rep.Classes, "four-bank-27")
	rep.Figure2Speedup = geomean(rep.Classes, "figure2-dm")
	rep.OverallSpeedup = geomean(rep.Classes, "")
	rep.FusedSpeedup = fusedGeomean(rep.Classes)
	return rep, nil
}

// measureFourBank times the full 27-configuration sweep on all three
// kernels: reference, per-config fast, and the fused single pass.
func measureFourBank(profile string, data []trace.Access, p *energy.Params, opts Options) (ClassResult, error) {
	cfgs := cache.AllConfigs()
	m := engine.Configurable(p)
	refTime, refRes := timeSweep(opts.Reps, func() []engine.Result[cache.Config] {
		return engine.New(data, m, engine.WithReferenceSim()).EvaluateAll(cfgs, opts.Workers)
	})
	fastTime, fastRes := timeSweep(opts.Reps, func() []engine.Result[cache.Config] {
		return engine.New(data, m, engine.WithFastSim()).EvaluateAll(cfgs, opts.Workers)
	})
	if err := diff(profile, refRes, fastRes); err != nil {
		return ClassResult{}, err
	}
	fusedTime, fusedRes := timeSweep(opts.Reps, func() []engine.Result[cache.Config] {
		return engine.New(data, m, engine.WithFusedSweep()).EvaluateAll(cfgs, opts.Workers)
	})
	if err := diff(profile, refRes, fusedRes); err != nil {
		return ClassResult{}, err
	}
	cr := classResult("four-bank-27", profile, len(cfgs), len(data), refTime, fastTime)
	fused := mkTiming(fusedTime, cr.Accesses)
	cr.Fused = &fused
	cr.FusedSpeedup = fused.AccessesPerSec / cr.Fast.AccessesPerSec
	return cr, nil
}

// measureScaling times one profile's four-bank sweep at a given worker
// count, per-config fast kernel versus the fused pass, with the same
// embedded differential check.
func measureScaling(profile string, data []trace.Access, p *energy.Params, opts Options, workers int) (ScalingResult, error) {
	cfgs := cache.AllConfigs()
	m := engine.Configurable(p)
	fastTime, fastRes := timeSweep(opts.Reps, func() []engine.Result[cache.Config] {
		return engine.New(data, m, engine.WithFastSim()).EvaluateAll(cfgs, workers)
	})
	fusedTime, fusedRes := timeSweep(opts.Reps, func() []engine.Result[cache.Config] {
		return engine.New(data, m, engine.WithFusedSweep()).EvaluateAll(cfgs, workers)
	})
	if err := diff(fmt.Sprintf("%s workers=%d", profile, workers), fastRes, fusedRes); err != nil {
		return ScalingResult{}, err
	}
	accesses := int64(len(cfgs)) * int64(len(data))
	perCfg, fused := mkTiming(fastTime, accesses), mkTiming(fusedTime, accesses)
	return ScalingResult{
		Profile: profile, Workers: workers,
		Configs: len(cfgs), Accesses: accesses,
		PerConfig: perCfg, Fused: fused,
		Speedup: fused.AccessesPerSec / perCfg.AccessesPerSec,
	}, nil
}

// measureFigure2 times the 1 KB–1 MB direct-mapped sweep on both kernels.
func measureFigure2(profile string, data []trace.Access, p *energy.Params, opts Options) (ClassResult, error) {
	var cfgs []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		cfgs = append(cfgs, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	m := engine.Generic(p)
	m.NoDrain = true // Figure 2's raw per-size comparison
	refTime, refRes := timeSweep(opts.Reps, func() []engine.Result[cache.GenericConfig] {
		return engine.New(data, m, engine.WithReferenceSim()).EvaluateAll(cfgs, opts.Workers)
	})
	fastTime, fastRes := timeSweep(opts.Reps, func() []engine.Result[cache.GenericConfig] {
		return engine.New(data, m, engine.WithFastSim()).EvaluateAll(cfgs, opts.Workers)
	})
	if err := diff(profile, refRes, fastRes); err != nil {
		return ClassResult{}, err
	}
	return classResult("figure2-dm", profile, len(cfgs), len(data), refTime, fastTime), nil
}

// timeSweep runs the sweep reps times on fresh engines, returning the best
// wall time and the last run's results for the differential check.
func timeSweep[C comparable](reps int, sweep func() []engine.Result[C]) (float64, []engine.Result[C]) {
	best := 0.0
	var last []engine.Result[C]
	for r := 0; r < reps; r++ {
		start := time.Now()
		last = sweep()
		if s := time.Since(start).Seconds(); r == 0 || s < best {
			best = s
		}
	}
	return best, last
}

// diff is the embedded differential oracle: the timed runs must agree bit
// for bit or the benchmark is void.
func diff[C comparable](profile string, ref, fast []engine.Result[C]) error {
	if len(ref) != len(fast) {
		return fmt.Errorf("bench %s: result count %d vs %d", profile, len(ref), len(fast))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], fast[i]) {
			return fmt.Errorf("bench %s: kernels diverged at %v:\n reference %+v\n fast      %+v",
				profile, ref[i].Cfg, ref[i], fast[i])
		}
	}
	return nil
}

func mkTiming(sec float64, accesses int64) Timing {
	return Timing{
		Seconds:        sec,
		NsPerAccess:    sec * 1e9 / float64(accesses),
		AccessesPerSec: float64(accesses) / sec,
	}
}

func classResult(class, profile string, configs, streamLen int, refSec, fastSec float64) ClassResult {
	accesses := int64(configs) * int64(streamLen)
	ref, fast := mkTiming(refSec, accesses), mkTiming(fastSec, accesses)
	return ClassResult{
		Class: class, Profile: profile,
		Configs: configs, Accesses: accesses,
		Reference: ref, Fast: fast,
		Speedup: fast.AccessesPerSec / ref.AccessesPerSec,
	}
}

// kernelAllocs measures heap allocations per ReplayBatch call for each
// kernel family — the zero-alloc pin, reported rather than assumed.
func kernelAllocs() map[string]float64 {
	accs := make([]trace.Access, 4096)
	for i := range accs {
		accs[i] = trace.Access{Addr: uint32(i*64) & 0xFFFFF, Kind: trace.Kind(i % 3)}
	}
	fb := fastsim.Must(cache.BaseConfig())
	gk := fastsim.MustGeneric(cache.GenericConfig{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32})
	fk := fastsim.NewFused()
	cols := trace.NewColumns(accs)
	return map[string]float64{
		"four-bank": testing.AllocsPerRun(10, func() { fb.ReplayBatch(accs) }),
		"generic":   testing.AllocsPerRun(10, func() { gk.ReplayBatch(accs) }),
		"fused":     testing.AllocsPerRun(10, func() { fk.ReplayColumns(cols) }),
	}
}

// fusedGeomean is the geometric mean of the four-bank rows'
// fused-vs-per-config ratios.
func fusedGeomean(classes []ClassResult) float64 {
	prod, n := 1.0, 0
	for _, c := range classes {
		if c.Fused != nil && c.FusedSpeedup > 0 {
			prod *= c.FusedSpeedup
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// geomean is the geometric-mean speedup of one class's measurements; an
// empty class means all of them.
func geomean(classes []ClassResult, class string) float64 {
	prod, n := 1.0, 0
	for _, c := range classes {
		if class == "" || c.Class == class {
			prod *= c.Speedup
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Table renders the human-readable view.
func (r *Report) Table() string {
	t := report.NewTable("class", "profile", "configs", "ref ns/acc", "fast ns/acc", "fused ns/acc", "speedup", "fused/fast")
	for _, c := range r.Classes {
		fusedNs, fusedX := "-", "-"
		if c.Fused != nil {
			fusedNs = fmt.Sprintf("%.2f", c.Fused.NsPerAccess)
			fusedX = fmt.Sprintf("%.2fx", c.FusedSpeedup)
		}
		t.Addf(c.Class, c.Profile, c.Configs,
			fmt.Sprintf("%.1f", c.Reference.NsPerAccess),
			fmt.Sprintf("%.1f", c.Fast.NsPerAccess),
			fusedNs,
			fmt.Sprintf("%.2fx", c.Speedup),
			fusedX)
	}
	s := t.String()
	if len(r.Scaling) > 0 {
		st := report.NewTable("scaling profile", "workers", "per-config Macc/s", "fused Macc/s", "fused/per-config")
		for _, sc := range r.Scaling {
			st.Addf(sc.Profile, sc.Workers,
				fmt.Sprintf("%.2f", sc.PerConfig.AccessesPerSec/1e6),
				fmt.Sprintf("%.2f", sc.Fused.AccessesPerSec/1e6),
				fmt.Sprintf("%.2fx", sc.Speedup))
		}
		s += "\n" + st.String()
	}
	s += fmt.Sprintf("\nfour-bank sweep speedup (geomean): %.2fx\n", r.FourBankSpeedup)
	s += fmt.Sprintf("figure 2 sweep speedup:            %.2fx\n", r.Figure2Speedup)
	s += fmt.Sprintf("overall speedup (geomean):         %.2fx\n", r.OverallSpeedup)
	s += fmt.Sprintf("fused sweep speedup over per-config (geomean): %.2fx\n", r.FusedSpeedup)
	s += fmt.Sprintf("kernel allocs/op: four-bank=%.0f generic=%.0f fused=%.0f\n",
		r.KernelAllocsPerOp["four-bank"], r.KernelAllocsPerOp["generic"], r.KernelAllocsPerOp["fused"])
	return s
}
