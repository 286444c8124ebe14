// Package engine owns trace replay end-to-end: it replays a shared immutable
// reference stream through a freshly built cache simulator per configuration
// (or, for a batch of four-bank configurations, one fused pass), applies
// the end-of-interval dirty-line drain and the Equation 1 energy pricing
// exactly once, memoises per-configuration results behind a mutex, and fans
// sweeps out across a bounded worker pool. Every evaluator and experiment
// sweep in the repository (tuner.TraceEvaluator, tuner.ScalableEvaluator,
// the exhaustive baselines, the ordering tournament, and the Table 1 /
// Figure 2-4 / window-sensitivity experiment generators) routes through
// this package, so the replay semantics are defined in one place and every
// sweep parallelises the same way.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// Simulator is the replay contract: a cache the engine can drive through a
// reference stream and account for afterwards. cache.Configurable,
// cache.Scalable and cache.Generic all implement it.
type Simulator interface {
	cache.Simulator
	// DirtyLines reports the dirty lines still resident at interval end;
	// the engine charges them as writebacks (the drain) so a larger cache
	// gets no credit for merely postponing write traffic past the
	// measurement horizon.
	DirtyLines() int
}

// Factory builds a fresh, cold Simulator for one configuration. The engine
// calls it once per configuration (results are memoised), possibly from
// several goroutines at once for different configurations.
type Factory[C comparable] func(C) Simulator

// Model binds a configuration type to simulator construction and energy
// pricing. C is the configuration key (cache.Config for the four-bank and
// scalable caches, cache.GenericConfig for conventional caches).
type Model[C comparable] struct {
	// Build constructs the reference simulator for a configuration.
	Build Factory[C]
	// FastBuild, when non-nil, constructs the fast replay kernel for a
	// configuration. It must be bit-identical to Build in every output the
	// engine observes (Stats, DirtyLines) — the fastsim differential
	// oracle enforces this for the stock models. An engine replays through
	// it unless constructed WithReferenceSim.
	FastBuild Factory[C]
	// FusedBuild, when non-nil, constructs a fused multi-configuration
	// kernel: one trace pass that measures every configuration in its
	// Configs set at once (fastsim.FusedKernel for the four-bank space).
	// Like FastBuild it must be bit-identical to Build per configuration —
	// the fused tier of the differential oracle enforces this. A default
	// engine serves every batch request (EvaluateAll, Sweep) from one fused
	// pass over the request's covered configurations; single evaluations and
	// uncovered configurations use the per-configuration factories. Fault
	// wrappers clear this field: injection is per (configuration, reading)
	// and a fused pass cannot realise it, so a fault-armed model must never
	// fuse.
	FusedBuild func() FusedReplayer[C]
	// Price applies Equation 1 to the interval's counters.
	Price func(C, cache.Stats) energy.Breakdown
	// NoDrain skips the end-of-interval dirty-line drain. The tuner's
	// evaluators always drain; the Figure 2-4 sweeps reproduce the
	// paper's raw per-configuration comparison, which does not.
	NoDrain bool
}

// Result is the outcome of replaying one configuration.
type Result[C comparable] struct {
	// Cfg is the configuration measured.
	Cfg C
	// Energy is the Equation 1 total the tuner minimises.
	Energy float64
	// Breakdown decomposes Energy.
	Breakdown energy.Breakdown
	// Stats are the interval counters (drain writebacks included unless
	// the model sets NoDrain).
	Stats cache.Stats
	// Err is non-nil when the replay could not produce a measurement: the
	// simulator panicked on every retry attempt. Energy and Stats are
	// meaningless then; consumers (tuner plausibility checks, sweep
	// reductions) must treat such a result as an unusable reading, not a
	// measurement of zero energy.
	Err error
}

// RetryPolicy bounds how the engine retries a replay whose simulator
// panicked — the transient-fault path (a faulty way, a wedged counter read)
// of an in-situ tuner. The zero value means a single attempt, no retry.
type RetryPolicy struct {
	// Attempts is the maximum number of replay attempts per configuration
	// (minimum 1; the zero value behaves as 1).
	Attempts int
	// Backoff is the wait before the second attempt; it doubles on each
	// further attempt. Zero means retry immediately.
	Backoff time.Duration
}

func (rp RetryPolicy) attempts() int {
	if rp.Attempts < 1 {
		return 1
	}
	return rp.Attempts
}

// FusedReplayer is the fused-sweep contract: a kernel that replays one
// columnar stream through a fixed set of configurations simultaneously and
// reconstructs each configuration's interval counters and drain count
// afterwards. fastsim.FusedKernel implements it for the 27-point four-bank
// space.
type FusedReplayer[C comparable] interface {
	// Configs lists the configurations one pass covers.
	Configs() []C
	// ReplayColumns advances every configuration through a block of
	// accesses; the engine feeds ctxCheckInterval-sized blocks.
	ReplayColumns(trace.Columns)
	// StatsOf reconstructs one covered configuration's counters.
	StatsOf(C) cache.Stats
	// DirtyLinesOf reports one covered configuration's drain count.
	DirtyLinesOf(C) int
}

// Option configures an Engine at construction.
type Option func(*engineOptions)

type engineOptions struct{ pin kernel }

// kernel is a constructor pin on the engine's kernel selection.
type kernel uint8

const (
	// kernelDefault fuses batch requests and replays single evaluations
	// through the per-configuration fast kernel.
	kernelDefault kernel = iota
	kernelFast
	kernelReference
	kernelFused
)

// WithFastSim pins the engine to the per-configuration fast kernel
// (Model.FastBuild) for every evaluation, batches included. An engine whose
// model has no FastBuild factory replays through the reference simulator.
func WithFastSim() Option {
	return func(o *engineOptions) { o.pin = kernelFast }
}

// WithReferenceSim pins the engine to the reference simulator for every
// evaluation — the differential oracle's and bench harness's baseline side.
func WithReferenceSim() Option {
	return func(o *engineOptions) { o.pin = kernelReference }
}

// WithFusedSweep serves single evaluations from the fused pass too: the
// first evaluation of a covered configuration measures the fused kernel's
// whole coverage set. Uncovered configurations, and every replay of a model
// without FusedBuild, use the per-configuration fast kernel.
func WithFusedSweep() Option {
	return func(o *engineOptions) { o.pin = kernelFused }
}

// Engine replays one shared immutable reference stream through
// configurations of one model. It is safe for concurrent use: results are
// memoised behind a mutex and a configuration is replayed at most once even
// when requested by several goroutines at the same time.
type Engine[C comparable] struct {
	accs  []trace.Access
	model Model[C]

	// Retry bounds how replays whose simulator panicked are retried.
	// Set it before the first Evaluate; it must not change concurrently
	// with evaluation. The zero value runs each replay once.
	Retry RetryPolicy

	// Rec receives replay telemetry (per-configuration replay start and
	// finish). Like Retry, set it before the first Evaluate. nil means
	// no events; the memoiser counters below are maintained regardless.
	Rec obs.Recorder

	met Counters

	// hist, when non-nil (set by Publish), receives each replay's
	// wall-clock duration. Latency lives only on the metrics surface; the
	// replay events above carry deterministic work units (accesses), never
	// the clock — the telemetry-inertness contract.
	hist *obs.Histogram

	// The kernel selection, fixed at construction. build is the
	// per-configuration factory; fuseBatch serves a batch request's covered
	// configurations from one fused pass, and fuseSingle does the same for a
	// single evaluation. Each configuration thus maps to one result whichever
	// kernel measures it — fused and per-configuration replays share the
	// memo because the oracle pins them bit-identical.
	build                 Factory[C]
	fuseBatch, fuseSingle bool

	// cols is the columnar transposition of accs, built once on the first
	// fused replay and shared (read-only) by every subsequent pass.
	colsOnce sync.Once
	cols     trace.Columns

	// fusedCfgs is the fused kernel's coverage set, resolved once from a
	// throwaway FusedBuild instance on first use.
	fusedOnce sync.Once
	fusedCfgs []C

	mu       sync.Mutex
	memo     map[C]Result[C]
	inflight map[C]*sync.WaitGroup
}

// Counters are the engine's lifetime memoiser and resilience counters.
// Every Evaluate call lands exactly one MemoHits or MemoMisses increment
// (misses are leads that actually replay), so hits+misses equals completed
// Evaluate calls at any worker count — the worker-count-invariance property
// pinned in the tests.
type Counters struct {
	// MemoHits counts evaluations served from the memo.
	MemoHits atomic.Uint64
	// MemoMisses counts evaluations that led a fresh replay.
	MemoMisses atomic.Uint64
	// Retries counts replay attempts after the first (the retry policy).
	Retries atomic.Uint64
	// Panics counts simulator panics recovered into errors.
	Panics atomic.Uint64
}

// Counters exposes the engine's lifetime counters.
func (e *Engine[C]) Counters() *Counters { return &e.met }

// Publish registers the engine's counters on a metrics registry under the
// given prefix (e.g. "selftune_engine_"), plus the replay-latency histogram
// (prefix + "replay_seconds"). Like Rec and Retry, call it before the first
// Evaluate.
func (e *Engine[C]) Publish(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"memo_hits_total", func() float64 { return float64(e.met.MemoHits.Load()) })
	reg.Func(prefix+"memo_misses_total", func() float64 { return float64(e.met.MemoMisses.Load()) })
	reg.Func(prefix+"retries_total", func() float64 { return float64(e.met.Retries.Load()) })
	reg.Func(prefix+"panics_total", func() float64 { return float64(e.met.Panics.Load()) })
	reg.Describe(prefix+"replay_seconds", "Wall-clock duration of one memo-miss trace replay.")
	e.hist = reg.Histogram(prefix + "replay_seconds")
}

// rec normalises the recorder for event emission; hot paths guard on
// Enabled before building events.
func (e *Engine[C]) rec() obs.Recorder {
	if e.Rec == nil {
		return obs.Nop
	}
	return e.Rec
}

// New builds an engine over a recorded stream. The stream should be a single
// cache's view: instruction fetches for an I-cache study or data references
// for a D-cache study (use trace.Split). The engine aliases accs; callers
// must not mutate it afterwards. By default a batch request is served from
// one fused pass when the model provides FusedBuild, and everything else
// from the fast kernel when the model provides FastBuild; WithFastSim,
// WithReferenceSim and WithFusedSweep pin one kernel instead.
func New[C comparable](accs []trace.Access, m Model[C], opts ...Option) *Engine[C] {
	var o engineOptions
	for _, opt := range opts {
		opt(&o)
	}
	e := &Engine[C]{
		accs:     accs,
		model:    m,
		build:    m.Build,
		memo:     map[C]Result[C]{},
		inflight: map[C]*sync.WaitGroup{},
	}
	if m.FastBuild != nil && o.pin != kernelReference {
		e.build = m.FastBuild
	}
	if m.FusedBuild != nil {
		e.fuseBatch = o.pin == kernelDefault || o.pin == kernelFused
		e.fuseSingle = o.pin == kernelFused
	}
	return e
}

// coverage returns the fused kernel's configuration set, resolved once per
// engine.
func (e *Engine[C]) coverage() []C {
	e.fusedOnce.Do(func() { e.fusedCfgs = e.model.FusedBuild().Configs() })
	return e.fusedCfgs
}

// Len is the number of accesses replayed per configuration.
func (e *Engine[C]) Len() int { return len(e.accs) }

// Evaluate measures one configuration, memoised. Concurrent calls for the
// same configuration replay it once; the others wait for the result. A
// simulator that panics (after the Retry policy is exhausted) yields a
// result with Err set instead of crashing the process.
func (e *Engine[C]) Evaluate(cfg C) Result[C] {
	r, _ := e.EvaluateCtx(context.Background(), cfg)
	return r
}

// EvaluateCtx is Evaluate under a context: cancellation or a deadline stops
// the replay mid-stream and returns ctx's error. Only successful (or
// deterministically failed) replays are memoised; a cancelled replay is not,
// so a later call can complete it.
func (e *Engine[C]) EvaluateCtx(ctx context.Context, cfg C) (Result[C], error) {
	var fuse []C
	if e.fuseSingle {
		fuse = e.coverage()
	}
	return e.evaluate(ctx, cfg, fuse)
}

// evaluate serves one configuration from the memo, or leads its replay:
// when fuse contains cfg, one fused pass over every configuration in fuse
// that is neither memoised nor in flight; otherwise a per-configuration
// replay.
func (e *Engine[C]) evaluate(ctx context.Context, cfg C, fuse []C) (Result[C], error) {
	for {
		if err := ctx.Err(); err != nil {
			return Result[C]{Cfg: cfg}, err
		}
		e.mu.Lock()
		if r, ok := e.memo[cfg]; ok {
			e.mu.Unlock()
			e.met.MemoHits.Add(1)
			return r, nil
		}
		wg, running := e.inflight[cfg]
		if running {
			e.mu.Unlock()
			wg.Wait()
			continue
		}
		wg = new(sync.WaitGroup)
		wg.Add(1)
		e.inflight[cfg] = wg
		if slices.Contains(fuse, cfg) {
			// One fused lead serves the whole set: register the same
			// in-flight entry for every configuration that is neither
			// memoised nor already being replayed, in this same critical
			// section, so concurrent evaluations of sibling configurations
			// join this pass instead of leading their own.
			cfgs := []C{cfg}
			for _, c := range fuse {
				if _, ok := e.memo[c]; ok {
					continue
				}
				if _, ok := e.inflight[c]; ok {
					continue
				}
				e.inflight[c] = wg
				cfgs = append(cfgs, c)
			}
			e.mu.Unlock()
			return e.leadFused(ctx, cfgs, wg)
		}
		e.mu.Unlock()
		return e.lead(ctx, cfg, wg)
	}
}

// Reevaluate drops cfg's memoised result and replays it afresh — the
// tuner's re-measure path after an implausible reading. For a fault-free
// model the fresh replay is bit-identical to the dropped one; under an
// injected measurement fault each replay is a new attempt, so a transient
// fault can clear on the second reading.
func (e *Engine[C]) Reevaluate(cfg C) Result[C] {
	e.mu.Lock()
	delete(e.memo, cfg)
	e.mu.Unlock()
	return e.Evaluate(cfg)
}

// lead replays one configuration on behalf of every waiter and publishes
// the result.
func (e *Engine[C]) lead(ctx context.Context, cfg C, wg *sync.WaitGroup) (Result[C], error) {
	defer func() {
		e.mu.Lock()
		delete(e.inflight, cfg)
		e.mu.Unlock()
		wg.Done()
	}()
	e.met.MemoMisses.Add(1)
	if rec := e.rec(); rec.Enabled() {
		rec.Record(obs.Event{Name: "engine.replay.start", Config: fmt.Sprint(cfg),
			Fields: []slog.Attr{slog.Int("accesses", len(e.accs))}})
	}
	t0 := time.Now()
	r, err := e.replay(ctx, cfg)
	if err == nil {
		e.hist.ObserveSince(t0)
	}
	if err != nil {
		// Cancelled mid-replay: nothing to publish. Waiters loop and
		// observe their own context.
		return r, err
	}
	if rec := e.rec(); rec.Enabled() {
		fields := []slog.Attr{slog.Float64("energy", r.Energy), slog.Float64("miss_rate", r.Stats.MissRate())}
		if r.Err != nil {
			fields = append(fields, slog.String("err", r.Err.Error()))
		}
		rec.Record(obs.Event{Name: "engine.replay.finish", Config: fmt.Sprint(cfg), Fields: fields})
	}
	e.mu.Lock()
	e.memo[cfg] = r
	e.mu.Unlock()
	return r, nil
}

// leadFused runs one fused pass on behalf of every configuration in cfgs
// (cfgs[0] is the caller's own) and publishes every result. It counts as ONE
// memo miss — the caller's Evaluate led one replay; the sibling results it
// deposits are served to later calls as memo hits, preserving
// hits+misses == completed-calls at any worker count.
func (e *Engine[C]) leadFused(ctx context.Context, cfgs []C, wg *sync.WaitGroup) (Result[C], error) {
	defer func() {
		e.mu.Lock()
		for _, c := range cfgs {
			delete(e.inflight, c)
		}
		e.mu.Unlock()
		wg.Done()
	}()
	e.met.MemoMisses.Add(1)
	if rec := e.rec(); rec.Enabled() {
		rec.Record(obs.Event{Name: "engine.replay.start", Config: "fused",
			Fields: []slog.Attr{slog.Int("accesses", len(e.accs)), slog.Int("configs", len(cfgs))}})
	}
	t0 := time.Now()
	results, err := e.fusedReplay(ctx, cfgs)
	if err != nil {
		// Cancelled mid-pass: nothing is memoised; waiters loop and observe
		// their own context, and a later call can complete the pass.
		return Result[C]{Cfg: cfgs[0]}, err
	}
	e.hist.ObserveSince(t0)
	if rec := e.rec(); rec.Enabled() {
		fields := []slog.Attr{slog.Int("configs", len(cfgs)),
			slog.Float64("energy", results[0].Energy), slog.Float64("miss_rate", results[0].Stats.MissRate())}
		if results[0].Err != nil {
			fields = append(fields, slog.String("err", results[0].Err.Error()))
		}
		rec.Record(obs.Event{Name: "engine.replay.finish", Config: "fused", Fields: fields})
	}
	e.mu.Lock()
	for i, c := range cfgs {
		e.memo[c] = results[i]
	}
	e.mu.Unlock()
	return results[0], nil
}

// fusedReplay runs one fused pass under the retry policy, mirroring replay:
// the returned error is reserved for context cancellation; a pass that
// panicked on every attempt fails every covered configuration with the same
// deterministic error.
func (e *Engine[C]) fusedReplay(ctx context.Context, cfgs []C) ([]Result[C], error) {
	backoff := e.Retry.Backoff
	var lastErr error
	for attempt := 1; attempt <= e.Retry.attempts(); attempt++ {
		if attempt > 1 {
			e.met.Retries.Add(1)
			if rec := e.rec(); rec.Enabled() {
				rec.Record(obs.Event{Name: "engine.retry", Config: "fused",
					Fields: []slog.Attr{slog.Int("attempt", attempt), slog.String("cause", lastErr.Error())}})
			}
			if backoff > 0 {
				if err := sleepCtx(ctx, backoff); err != nil {
					return nil, err
				}
				backoff *= 2
			}
		}
		rs, err := e.fusedReplayOnce(ctx, cfgs)
		if err == nil {
			return rs, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		lastErr = err
	}
	out := make([]Result[C], len(cfgs))
	for i, c := range cfgs {
		out[i] = Result[C]{Cfg: c, Err: lastErr}
	}
	return out, nil
}

// fusedReplayOnce is the fused replay loop: one cold fused kernel, the whole
// columnar stream in ctxCheckInterval blocks, then per-configuration drain
// and pricing — the same accounting replayOnce applies per configuration,
// reconstructed from the single pass. A panic is recovered into an error.
func (e *Engine[C]) fusedReplayOnce(ctx context.Context, cfgs []C) (rs []Result[C], err error) {
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Add(1)
			err = fmt.Errorf("engine: fused replay panicked: %v", p)
		}
	}()
	e.colsOnce.Do(func() { e.cols = trace.NewColumns(e.accs) })
	k := e.model.FusedBuild()
	n := e.cols.Len()
	for start := 0; start < n; start += ctxCheckInterval {
		if start > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
		}
		end := start + ctxCheckInterval
		if end > n {
			end = n
		}
		k.ReplayColumns(e.cols.Slice(start, end))
	}
	rs = make([]Result[C], len(cfgs))
	for i, cfg := range cfgs {
		st := k.StatsOf(cfg)
		if !e.model.NoDrain {
			st.Writebacks += uint64(k.DirtyLinesOf(cfg))
		}
		b := e.model.Price(cfg, st)
		rs[i] = Result[C]{Cfg: cfg, Energy: b.Total(), Breakdown: b, Stats: st}
	}
	return rs, nil
}

// replay runs replayOnce under the retry policy. The returned error is
// reserved for context cancellation; a replay that panicked on every
// attempt comes back as a Result with Err set (and is memoised, keeping
// deterministic fault plans deterministic).
func (e *Engine[C]) replay(ctx context.Context, cfg C) (Result[C], error) {
	backoff := e.Retry.Backoff
	var lastErr error
	for attempt := 1; attempt <= e.Retry.attempts(); attempt++ {
		if attempt > 1 {
			e.met.Retries.Add(1)
			if rec := e.rec(); rec.Enabled() {
				rec.Record(obs.Event{Name: "engine.retry", Config: fmt.Sprint(cfg),
					Fields: []slog.Attr{slog.Int("attempt", attempt), slog.String("cause", lastErr.Error())}})
			}
			if backoff > 0 {
				if err := sleepCtx(ctx, backoff); err != nil {
					return Result[C]{Cfg: cfg}, err
				}
				backoff *= 2
			}
		}
		r, err := e.replayOnce(ctx, cfg)
		if err == nil {
			return r, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Result[C]{Cfg: cfg}, cerr
		}
		lastErr = err
	}
	return Result[C]{Cfg: cfg, Err: lastErr}, nil
}

// sleepCtx waits out a retry backoff or returns ctx.Err() the moment the
// context is cancelled, whichever comes first. The explicit timer (rather
// than time.After) is stopped on the cancellation path, so an aborted sweep
// releases its timers immediately instead of leaving one ticking per
// backed-off replay until the full backoff elapses.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ctxCheckInterval is how many accesses the replay loop runs between
// context checks, so a deadline can interrupt a long replay mid-stream
// without measurably slowing the hot loop.
const ctxCheckInterval = 1 << 16

// BatchReplayer is the optional Simulator fast path: replay a whole block
// of accesses in one call, eliminating per-access interface dispatch. The
// fastsim kernels implement it; the engine feeds ctxCheckInterval-sized
// blocks so cancellation latency matches the per-access loop.
type BatchReplayer interface {
	ReplayBatch(accs []trace.Access)
}

// replayOnce is the one replay loop in the repository: fresh cache, full
// stream, drain, price. A panic anywhere in the simulator is recovered into
// an error instead of killing the process.
func (e *Engine[C]) replayOnce(ctx context.Context, cfg C) (r Result[C], err error) {
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Add(1)
			err = fmt.Errorf("engine: replay of %v panicked: %v", cfg, p)
		}
	}()
	s := e.build(cfg)
	if br, ok := s.(BatchReplayer); ok {
		for start := 0; start < len(e.accs); start += ctxCheckInterval {
			if start > 0 {
				if cerr := ctx.Err(); cerr != nil {
					return Result[C]{Cfg: cfg}, cerr
				}
			}
			end := start + ctxCheckInterval
			if end > len(e.accs) {
				end = len(e.accs)
			}
			br.ReplayBatch(e.accs[start:end])
		}
	} else {
		for i, a := range e.accs {
			if i&(ctxCheckInterval-1) == 0 && i > 0 {
				if cerr := ctx.Err(); cerr != nil {
					return Result[C]{Cfg: cfg}, cerr
				}
			}
			s.Access(a.Addr, a.IsWrite())
		}
	}
	st := s.Stats()
	if !e.model.NoDrain {
		// Drain: charge the dirty lines still resident at interval end
		// as writebacks. Without this a larger cache gets credit for
		// merely postponing write traffic past the measurement horizon,
		// which would bias every size comparison upward.
		st.Writebacks += uint64(s.DirtyLines())
	}
	b := e.model.Price(cfg, st)
	return Result[C]{Cfg: cfg, Energy: b.Total(), Breakdown: b, Stats: st}, nil
}

// EvaluateAll measures every configuration, fanned out across workers
// goroutines (non-positive means GOMAXPROCS). Results are returned in input
// order and are bit-identical to a serial replay: each configuration's
// simulation is independent and deterministic, so only the scheduling
// changes with the worker count. A default engine whose model provides
// FusedBuild measures the request's covered configurations in one fused
// pass, led by the first worker to miss the memo.
func (e *Engine[C]) EvaluateAll(cfgs []C, workers int) []Result[C] {
	rs, _ := e.EvaluateAllCtx(context.Background(), cfgs, workers)
	return rs
}

// EvaluateAllCtx is EvaluateAll under a context: a deadline or cancellation
// aborts the sweep (stopping mid-replay) and returns ctx's error with the
// partial results. A configuration whose simulator crashed does NOT abort
// the sweep — its failure is carried in that result's Err field — so one
// bad way or one wedged counter costs one data point, not the whole sweep.
func (e *Engine[C]) EvaluateAllCtx(ctx context.Context, cfgs []C, workers int) ([]Result[C], error) {
	var fuse []C
	if e.fuseBatch {
		cov := e.coverage()
		for _, c := range cfgs {
			if slices.Contains(cov, c) {
				fuse = append(fuse, c)
			}
		}
	}
	return ParallelErr(ctx, len(cfgs), workers, func(i int) (Result[C], error) {
		return e.evaluate(ctx, cfgs[i], fuse)
	})
}

// Sweep replays one stream through every configuration in parallel — the
// one-shot form of New(...).EvaluateAll(...).
func Sweep[C comparable](accs []trace.Access, m Model[C], cfgs []C, workers int, opts ...Option) []Result[C] {
	return New(accs, m, opts...).EvaluateAll(cfgs, workers)
}

// SweepCtx is Sweep under a context (see EvaluateAllCtx for the semantics).
// A recorder carried by the context (obs.IntoContext) receives the sweep's
// per-replay events — how the CLIs' -v flag reaches one-shot sweeps without
// threading a recorder through every experiment signature.
func SweepCtx[C comparable](ctx context.Context, accs []trace.Access, m Model[C], cfgs []C, workers int, opts ...Option) ([]Result[C], error) {
	e := New(accs, m, opts...)
	e.Rec = obs.FromContext(ctx)
	return e.EvaluateAllCtx(ctx, cfgs, workers)
}
