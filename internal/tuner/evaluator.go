// Package tuner implements the paper's self-tuning search: the Figure 6
// heuristic (size, then line size, then associativity, then way prediction,
// each swept in the flush-free direction), an exhaustive baseline, the
// alternative parameter ordering the paper compares against, the on-line
// no-flush tuner that drives a live cache through successive measurement
// windows, the §3.5 FSMD hardware model with its gate/area/power estimate,
// the largest-first flush ablation (§4), and the §3.4 multilevel-hierarchy
// generalisation.
package tuner

import (
	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// EvalResult is the outcome of measuring one configuration: the replay
// engine's result keyed by the four-bank Config (Cfg, Energy, Breakdown,
// Stats).
type EvalResult = engine.Result[cache.Config]

// Evaluator measures the energy of one cache configuration.
type Evaluator interface {
	Evaluate(cfg cache.Config) EvalResult
}

// BatchEvaluator is an Evaluator that can fan a configuration list out
// across the replay engine's worker pool. Both trace-replay evaluators
// implement it; the exhaustive sweeps use it when available.
type BatchEvaluator interface {
	Evaluator
	// EvaluateAll measures every configuration on up to workers
	// goroutines (non-positive means GOMAXPROCS), returning results in
	// input order, bit-identical to serial evaluation.
	EvaluateAll(cfgs []cache.Config, workers int) []EvalResult
}

// TraceEvaluator replays a recorded reference stream through a fresh cache
// per configuration — the paper's Table 1 methodology (full-benchmark
// simulation per configuration). It is a thin adapter over the replay
// engine: results are memoised there, including the end-of-interval
// dirty-line drain, and Evaluate is safe for concurrent use.
type TraceEvaluator struct {
	eng    *engine.Engine[cache.Config]
	params *energy.Params
}

// NewTraceEvaluator builds an evaluator over a recorded stream. The stream
// should be a single cache's view: instruction fetches for an I-cache study
// or data references for a D-cache study (use trace.Split).
func NewTraceEvaluator(accs []trace.Access, p *energy.Params) *TraceEvaluator {
	return &TraceEvaluator{eng: engine.New(accs, engine.Configurable(p)), params: p}
}

// Evaluate implements Evaluator.
func (e *TraceEvaluator) Evaluate(cfg cache.Config) EvalResult {
	return e.eng.Evaluate(cfg)
}

// EvaluateAll implements BatchEvaluator.
func (e *TraceEvaluator) EvaluateAll(cfgs []cache.Config, workers int) []EvalResult {
	return e.eng.EvaluateAll(cfgs, workers)
}

// Remeasure implements Remeasurer: it drops the engine's memoised result and
// replays cfg afresh, so a transient measurement fault gets a second chance
// to clear instead of being served back from the memo.
func (e *TraceEvaluator) Remeasure(cfg cache.Config) EvalResult {
	return e.eng.Reevaluate(cfg)
}

// Observe attaches a telemetry recorder to the underlying replay engine
// (per-configuration replay events). Call it before the first Evaluate; it
// returns the evaluator for chaining.
func (e *TraceEvaluator) Observe(rec obs.Recorder) *TraceEvaluator {
	e.eng.Rec = rec
	return e
}

// Engine exposes the underlying replay engine (its memoiser counters feed
// the metrics registry).
func (e *TraceEvaluator) Engine() *engine.Engine[cache.Config] { return e.eng }

// Params exposes the energy model used.
func (e *TraceEvaluator) Params() *energy.Params { return e.params }

// EngineEvaluator adapts an arbitrary configurable-cache replay engine —
// typically one whose model is wrapped with fault injectors, or one built
// with engine.Scalable for a larger geometry — to the Evaluator,
// BatchEvaluator and Remeasurer interfaces. TraceEvaluator is the clean
// four-bank special case of this.
type EngineEvaluator struct {
	Eng *engine.Engine[cache.Config]
}

// Evaluate implements Evaluator.
func (e EngineEvaluator) Evaluate(cfg cache.Config) EvalResult { return e.Eng.Evaluate(cfg) }

// EvaluateAll implements BatchEvaluator.
func (e EngineEvaluator) EvaluateAll(cfgs []cache.Config, workers int) []EvalResult {
	return e.Eng.EvaluateAll(cfgs, workers)
}

// Remeasure implements Remeasurer.
func (e EngineEvaluator) Remeasure(cfg cache.Config) EvalResult { return e.Eng.Reevaluate(cfg) }

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(cfg cache.Config) EvalResult

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(cfg cache.Config) EvalResult { return f(cfg) }
