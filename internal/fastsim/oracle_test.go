// The differential oracle: the fast kernels are only allowed to exist while
// they are indistinguishable from the reference simulators. Every test here
// replays the same stream through a fast kernel and its reference simulator
// and asserts bit-identical observable state — per-access results, interval
// counters, drain accounting, engine results (energy included) and whole
// tuner search trajectories — across all 27 configurations of the paper's
// space and a spread of generic geometries.
//
// Traces come from two sources: seeded random generators spanning footprints
// from smaller-than-one-bank to much-larger-than-the-cache, unit to
// line-crossing strides, conflict pairs at the 0x2000 bank-alias spacing and
// multi-phase mixes; and the real workload profiles the experiments use.
// `go test -short` runs a reduced trace set so tier-1 stays fast.
package fastsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/fastsim"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// randomTrace generates a seeded synthetic stream with the ingredients the
// cache decisions hinge on: per-phase footprint, stride, access mode
// (sequential loop, random word, aligned chunk runs, 0x2000-spaced conflict
// alternation) and write mix.
func randomTrace(seed int64, n int) []trace.Access {
	r := rand.New(rand.NewSource(seed))
	phases := 1 + r.Intn(3)
	accs := make([]trace.Access, 0, n)
	for p := 0; p < phases; p++ {
		footprint := 1 << (9 + r.Intn(9)) // 512 B .. 128 KB
		stride := []int{1, 4, 8, 16, 20, 32, 64}[r.Intn(7)]
		chunkWords := 1 << (1 + r.Intn(4)) // 2 .. 16 words per run
		writePct := r.Intn(60)
		base := uint32(r.Intn(1<<14)) << 6
		mode := r.Intn(4)
		pos := 0
		var run, runBase int
		for i := 0; i < n/phases; i++ {
			var addr uint32
			switch mode {
			case 0: // strided cyclic loop over the footprint
				addr = base + uint32(pos%footprint)
				pos += stride
			case 1: // uniform random word in the footprint
				addr = base + uint32(r.Intn(footprint))&^3
			case 2: // aligned random chunk runs (line-locality carrier)
				if run == 0 {
					run = chunkWords
					runBase = r.Intn(footprint) &^ (4*chunkWords - 1)
				}
				addr = base + uint32(runBase+4*(chunkWords-run))
				run--
			default: // conflict pair at the bank-alias spacing
				addr = base + uint32(pos%512)
				if i&(1<<uint(r.Intn(6))) != 0 {
					addr += 0x2000
				}
				pos += stride
			}
			kind := trace.DataRead
			if r.Intn(100) < writePct {
				kind = trace.DataWrite
			}
			accs = append(accs, trace.Access{Addr: addr, Kind: kind})
		}
	}
	return accs
}

// oracleTraces is the shared trace set: seeded random streams plus real
// workload-profile streams. Short mode keeps three random seeds and one
// profile.
func oracleTraces(t *testing.T) map[string][]trace.Access {
	t.Helper()
	n := 30_000
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	profiles := []string{"crc", "adpcm", "mpeg2"}
	if testing.Short() {
		seeds = seeds[:3]
		profiles = profiles[:1]
		n = 12_000
	}
	out := map[string][]trace.Access{}
	for _, s := range seeds {
		out[string(rune('a'+s))+"-rand"] = randomTrace(s, n)
	}
	for _, name := range profiles {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		inst, data := trace.Split(trace.NewSliceSource(prof.Generate(n)))
		out[name+"-I"] = inst
		out[name+"-D"] = data
	}
	return out
}

// TestOracleFourBank replays every trace through all 27 configurations on
// the fast kernel and the reference cache, comparing each access's result
// and the final counters and drain count.
func TestOracleFourBank(t *testing.T) {
	for name, accs := range oracleTraces(t) {
		for _, cfg := range cache.AllConfigs() {
			ref := cache.MustConfigurable(cfg)
			fast := fastsim.Must(cfg)
			for i, a := range accs {
				rr := ref.Access(a.Addr, a.IsWrite())
				fr := fast.Access(a.Addr, a.IsWrite())
				if rr != fr {
					t.Fatalf("%s %v: access %d (%08x %v) diverged:\n ref  %+v\n fast %+v",
						name, cfg, i, a.Addr, a.Kind, rr, fr)
				}
			}
			if ref.Stats() != fast.Stats() {
				t.Fatalf("%s %v: stats diverged:\n ref  %+v\n fast %+v", name, cfg, ref.Stats(), fast.Stats())
			}
			if ref.DirtyLines() != fast.DirtyLines() {
				t.Fatalf("%s %v: dirty lines %d vs %d", name, cfg, ref.DirtyLines(), fast.DirtyLines())
			}
		}
	}
}

// TestOracleFourBankBatch drives the fast kernel through the batched
// interface (the engine's actual hot path, including odd-sized tail blocks)
// against a per-access reference replay.
func TestOracleFourBankBatch(t *testing.T) {
	for name, accs := range oracleTraces(t) {
		for _, cfg := range cache.AllConfigs() {
			ref := cache.MustConfigurable(cfg)
			for _, a := range accs {
				ref.Access(a.Addr, a.IsWrite())
			}
			fast := fastsim.Must(cfg)
			for start := 0; start < len(accs); start += 777 {
				end := start + 777
				if end > len(accs) {
					end = len(accs)
				}
				fast.ReplayBatch(accs[start:end])
			}
			if ref.Stats() != fast.Stats() {
				t.Fatalf("%s %v: batched stats diverged:\n ref  %+v\n fast %+v", name, cfg, ref.Stats(), fast.Stats())
			}
			if ref.DirtyLines() != fast.DirtyLines() {
				t.Fatalf("%s %v: batched dirty lines %d vs %d", name, cfg, ref.DirtyLines(), fast.DirtyLines())
			}
		}
	}
}

// genericOracleConfigs spans the Figure 2 sweep (1 KB–1 MB direct-mapped)
// plus set-associative and line-size variants covering both kernel loops.
func genericOracleConfigs() []cache.GenericConfig {
	var out []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		out = append(out, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	for _, ways := range []int{2, 4, 8} {
		for _, line := range []int{16, 32, 64} {
			out = append(out, cache.GenericConfig{SizeBytes: 16 << 10, Ways: ways, LineBytes: line})
		}
	}
	return out
}

// TestOracleGeneric is the generic-cache differential: per-access results,
// counters and drain across the Figure 2 geometries and associative
// variants.
func TestOracleGeneric(t *testing.T) {
	for name, accs := range oracleTraces(t) {
		for _, cfg := range genericOracleConfigs() {
			ref := cache.MustGeneric(cfg)
			fast := fastsim.MustGeneric(cfg)
			for i, a := range accs {
				rr := ref.Access(a.Addr, a.IsWrite())
				fr := fast.Access(a.Addr, a.IsWrite())
				if rr != fr {
					t.Fatalf("%s %v: access %d (%08x %v) diverged:\n ref  %+v\n fast %+v",
						name, cfg, i, a.Addr, a.Kind, rr, fr)
				}
			}
			if ref.Stats() != fast.Stats() {
				t.Fatalf("%s %v: stats diverged:\n ref  %+v\n fast %+v", name, cfg, ref.Stats(), fast.Stats())
			}
			if ref.DirtyLines() != fast.DirtyLines() {
				t.Fatalf("%s %v: dirty lines %d vs %d", name, cfg, ref.DirtyLines(), fast.DirtyLines())
			}
		}
	}
}

// TestOracleEngineResults compares full engine results — energy, breakdown,
// drained stats — between a fast-pinned and a reference-pinned engine over
// all 27 configurations, for both drain modes.
func TestOracleEngineResults(t *testing.T) {
	p := energy.DefaultParams()
	for name, accs := range oracleTraces(t) {
		for _, noDrain := range []bool{false, true} {
			m := engine.Configurable(p)
			m.NoDrain = noDrain
			ref := engine.New(accs, m, engine.WithReferenceSim()).EvaluateAll(cache.AllConfigs(), 4)
			fast := engine.New(accs, m, engine.WithFastSim()).EvaluateAll(cache.AllConfigs(), 4)
			for i := range ref {
				if !reflect.DeepEqual(ref[i], fast[i]) {
					t.Fatalf("%s noDrain=%v %v: engine results diverged:\n ref  %+v\n fast %+v",
						name, noDrain, ref[i].Cfg, ref[i], fast[i])
				}
			}
		}
	}
}

// TestOracleTunerTrajectory pins that the Figure 6 heuristic walks the
// identical search trajectory — every step's phase, configuration, energy
// and keep/stop decision — and reaches the identical best configuration on
// either kernel, for both parameter orderings.
func TestOracleTunerTrajectory(t *testing.T) {
	p := energy.DefaultParams()
	for name, accs := range oracleTraces(t) {
		for _, order := range [][]tuner.Param{tuner.PaperOrder, tuner.AlternativeOrder} {
			refEv := tuner.EngineEvaluator{Eng: engine.New(accs, engine.Configurable(p), engine.WithReferenceSim())}
			fastEv := tuner.EngineEvaluator{Eng: engine.New(accs, engine.Configurable(p), engine.WithFastSim())}
			var refSteps, fastSteps []tuner.SearchStep
			refRes := tuner.SearchTraced(refEv, order, tuner.DefaultSpace(),
				func(s tuner.SearchStep) { refSteps = append(refSteps, s) })
			fastRes := tuner.SearchTraced(fastEv, order, tuner.DefaultSpace(),
				func(s tuner.SearchStep) { fastSteps = append(fastSteps, s) })
			if !reflect.DeepEqual(refSteps, fastSteps) {
				t.Fatalf("%s order %v: search trajectories diverged:\n ref  %+v\n fast %+v",
					name, order, refSteps, fastSteps)
			}
			if refRes.Best.Cfg != fastRes.Best.Cfg || refRes.Best.Energy != fastRes.Best.Energy {
				t.Fatalf("%s order %v: best diverged: ref %v %.9g, fast %v %.9g",
					name, order, refRes.Best.Cfg, refRes.Best.Energy, fastRes.Best.Cfg, fastRes.Best.Energy)
			}
		}
	}
}

// runHeavyTrace is the fused kernel's adversary: streams dominated by
// same-block runs of random length (with addresses wobbling inside the
// block), so the run-folding fast path and its batch-boundary splits carry
// most of the accesses.
func runHeavyTrace(seed int64, n int) []trace.Access {
	r := rand.New(rand.NewSource(seed))
	accs := make([]trace.Access, 0, n)
	for len(accs) < n {
		base := uint32(r.Intn(1<<16)) &^ 15
		runLen := 1 + r.Intn(50)
		for j := 0; j < runLen && len(accs) < n; j++ {
			kind := trace.DataRead
			if r.Intn(100) < 30 {
				kind = trace.DataWrite
			}
			accs = append(accs, trace.Access{Addr: base | uint32(r.Intn(4))<<2, Kind: kind})
		}
	}
	return accs
}

// fusedOracleTraces is the fused tier's trace set: the shared oracle set
// plus run-heavy adversaries.
func fusedOracleTraces(t *testing.T) map[string][]trace.Access {
	t.Helper()
	out := oracleTraces(t)
	n := 30_000
	seeds := []int64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
		n = 12_000
	}
	for _, s := range seeds {
		out[string(rune('a'+s))+"-runs"] = runHeavyTrace(s, n)
	}
	return out
}

// TestOracleFusedPerAccess holds the fused kernel to per-access identity:
// fed one access at a time, its reconstructed counters must match every
// reference cache's cumulative stats after every single access, across all
// 27 configurations at once.
func TestOracleFusedPerAccess(t *testing.T) {
	for name, accs := range fusedOracleTraces(t) {
		cfgs := cache.AllConfigs()
		refs := make([]*cache.Configurable, len(cfgs))
		for ci, cfg := range cfgs {
			refs[ci] = cache.MustConfigurable(cfg)
		}
		fused := fastsim.NewFused()
		for i, a := range accs {
			fused.ReplayBatch(accs[i : i+1])
			for ci, cfg := range cfgs {
				refs[ci].Access(a.Addr, a.IsWrite())
				if rs, fs := refs[ci].Stats(), fused.StatsOf(cfg); rs != fs {
					t.Fatalf("%s %v: stats diverged after access %d (%08x %v):\n ref   %+v\n fused %+v",
						name, cfg, i, a.Addr, a.Kind, rs, fs)
				}
			}
		}
		for ci, cfg := range cfgs {
			if rd, fd := refs[ci].DirtyLines(), fused.DirtyLinesOf(cfg); rd != fd {
				t.Fatalf("%s %v: dirty lines %d vs %d", name, cfg, rd, fd)
			}
		}
	}
}

// TestOracleFusedStats drives the fused kernel the way the engine does —
// one whole-trace columnar pass, and separately odd-sized ReplayBatch
// blocks that split same-block runs at batch boundaries — and requires the
// final counters and drain of every configuration to match both the
// reference cache and the per-config fast kernel.
func TestOracleFusedStats(t *testing.T) {
	for name, accs := range fusedOracleTraces(t) {
		cols := trace.NewColumns(accs)
		whole := fastsim.NewFused()
		whole.ReplayColumns(cols)
		batched := fastsim.NewFused()
		for start := 0; start < len(accs); start += 777 {
			end := start + 777
			if end > len(accs) {
				end = len(accs)
			}
			batched.ReplayBatch(accs[start:end])
		}
		for _, cfg := range cache.AllConfigs() {
			ref := cache.MustConfigurable(cfg)
			for _, a := range accs {
				ref.Access(a.Addr, a.IsWrite())
			}
			fast := fastsim.Must(cfg)
			fast.ReplayBatch(accs)
			want := ref.Stats()
			if got := whole.StatsOf(cfg); got != want {
				t.Fatalf("%s %v: columnar stats diverged:\n ref   %+v\n fused %+v", name, cfg, want, got)
			}
			if got := batched.StatsOf(cfg); got != want {
				t.Fatalf("%s %v: batched stats diverged:\n ref   %+v\n fused %+v", name, cfg, want, got)
			}
			if got := fast.Stats(); got != want {
				t.Fatalf("%s %v: fast kernel diverged from reference:\n ref  %+v\n fast %+v", name, cfg, want, got)
			}
			if rd, wd, bd := ref.DirtyLines(), whole.DirtyLinesOf(cfg), batched.DirtyLinesOf(cfg); wd != rd || bd != rd {
				t.Fatalf("%s %v: dirty lines ref %d, columnar %d, batched %d", name, cfg, rd, wd, bd)
			}
		}
	}
}

// TestOracleFusedEngineResults compares full engine results — energy,
// breakdown, drained stats — between a fused-sweep engine and the reference
// and per-config fast engines over all 27 configurations, for both drain
// modes. reflect.DeepEqual on the whole Result makes this the
// engine-observable bit-identity claim for the fused path.
func TestOracleFusedEngineResults(t *testing.T) {
	p := energy.DefaultParams()
	for name, accs := range fusedOracleTraces(t) {
		for _, noDrain := range []bool{false, true} {
			m := engine.Configurable(p)
			m.NoDrain = noDrain
			ref := engine.New(accs, m, engine.WithReferenceSim()).EvaluateAll(cache.AllConfigs(), 4)
			fast := engine.New(accs, m, engine.WithFastSim()).EvaluateAll(cache.AllConfigs(), 4)
			fused := engine.New(accs, m, engine.WithFusedSweep()).EvaluateAll(cache.AllConfigs(), 4)
			for i := range ref {
				if !reflect.DeepEqual(ref[i], fused[i]) {
					t.Fatalf("%s noDrain=%v %v: fused diverged from reference:\n ref   %+v\n fused %+v",
						name, noDrain, ref[i].Cfg, ref[i], fused[i])
				}
				if !reflect.DeepEqual(fast[i], fused[i]) {
					t.Fatalf("%s noDrain=%v %v: fused diverged from fast:\n fast  %+v\n fused %+v",
						name, noDrain, fast[i].Cfg, fast[i], fused[i])
				}
			}
		}
	}
}

// TestOracleFusedTunerTrajectory pins that the Figure 6 heuristic walks the
// identical search trajectory on a fused-sweep engine — every step's phase,
// configuration, energy and keep/stop decision — for both parameter
// orderings.
func TestOracleFusedTunerTrajectory(t *testing.T) {
	p := energy.DefaultParams()
	for name, accs := range oracleTraces(t) {
		for _, order := range [][]tuner.Param{tuner.PaperOrder, tuner.AlternativeOrder} {
			refEv := tuner.EngineEvaluator{Eng: engine.New(accs, engine.Configurable(p), engine.WithReferenceSim())}
			fusedEv := tuner.EngineEvaluator{Eng: engine.New(accs, engine.Configurable(p), engine.WithFusedSweep())}
			var refSteps, fusedSteps []tuner.SearchStep
			refRes := tuner.SearchTraced(refEv, order, tuner.DefaultSpace(),
				func(s tuner.SearchStep) { refSteps = append(refSteps, s) })
			fusedRes := tuner.SearchTraced(fusedEv, order, tuner.DefaultSpace(),
				func(s tuner.SearchStep) { fusedSteps = append(fusedSteps, s) })
			if !reflect.DeepEqual(refSteps, fusedSteps) {
				t.Fatalf("%s order %v: search trajectories diverged:\n ref   %+v\n fused %+v",
					name, order, refSteps, fusedSteps)
			}
			if refRes.Best.Cfg != fusedRes.Best.Cfg || refRes.Best.Energy != fusedRes.Best.Energy {
				t.Fatalf("%s order %v: best diverged: ref %v %.9g, fused %v %.9g",
					name, order, refRes.Best.Cfg, refRes.Best.Energy, fusedRes.Best.Cfg, fusedRes.Best.Energy)
			}
		}
	}
}

// TestOracleDefaultTable1Path pins the kernel mix a default engine serves
// Table 1 with — the exhaustive sweep from one fused pass, the heuristic and
// the base evaluation from the per-configuration fast kernel, all sharing
// one memo — against a reference-pinned engine. Both call orders run, so
// each of the heuristic and the exhaustive sweep is checked both reading
// the other's memoised results and measuring cold.
func TestOracleDefaultTable1Path(t *testing.T) {
	p := energy.DefaultParams()
	profiles := []string{"crc", "adpcm", "mpeg2", "g721", "jpeg", "ucbqsort"}
	if testing.Short() {
		profiles = profiles[:2]
	}
	all := cache.AllConfigs()
	type outcome struct {
		heuristic, exhaustive tuner.SearchResult
		base                  tuner.EvalResult
	}
	run := func(ev tuner.Evaluator, exhaustiveFirst bool) (o outcome) {
		if exhaustiveFirst {
			o.exhaustive = tuner.ExhaustiveWorkers(ev, all, 4)
			o.heuristic = tuner.SearchPaper(ev)
		} else {
			o.heuristic = tuner.SearchPaper(ev)
			o.exhaustive = tuner.ExhaustiveWorkers(ev, all, 4)
		}
		o.base = ev.Evaluate(cache.BaseConfig())
		return o
	}
	for _, name := range profiles {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		inst, data := trace.Split(trace.NewSliceSource(prof.Generate(80_000)))
		for half, s := range map[string][]trace.Access{"I": inst[:min(len(inst), 40_000)], "D": data[:min(len(data), 40_000)]} {
			want := run(tuner.EngineEvaluator{Eng: engine.New(s, engine.Configurable(p), engine.WithReferenceSim())}, false)
			for _, exhaustiveFirst := range []bool{false, true} {
				got := run(tuner.NewTraceEvaluator(s, p), exhaustiveFirst)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s-%s exhaustive-first=%v: default engine diverged from reference:\n got  %+v\n want %+v",
						name, half, exhaustiveFirst, got, want)
				}
			}
		}
	}
}
