package tuner

import "selftune/internal/cache"

// Param identifies one tunable cache parameter.
type Param int

// The four tunable parameters (paper §1).
const (
	ParamSize Param = iota
	ParamLine
	ParamAssoc
	ParamPred
)

// ParamInitial marks the heuristic's starting measurement (the smallest
// configuration) in a SearchStep — it belongs to no parameter sweep.
const ParamInitial Param = -1

// String names the parameter.
func (p Param) String() string {
	switch p {
	case ParamInitial:
		return "initial"
	case ParamSize:
		return "size"
	case ParamLine:
		return "line"
	case ParamAssoc:
		return "assoc"
	case ParamPred:
		return "pred"
	default:
		return "?"
	}
}

// PaperOrder is the Figure 6 ordering derived from the impact analysis of
// §3.2: cache size first, then line size, then associativity, then way
// prediction.
var PaperOrder = []Param{ParamSize, ParamLine, ParamAssoc, ParamPred}

// AlternativeOrder is the ordering the paper evaluates as a strawman in §4
// (line size, associativity, way prediction, then cache size), which misses
// the optimum on most benchmarks.
var AlternativeOrder = []Param{ParamLine, ParamAssoc, ParamPred, ParamSize}

// SearchResult records a completed search.
type SearchResult struct {
	// Best is the chosen configuration.
	Best EvalResult
	// Examined lists every configuration measured, in order. Its length
	// is the paper's "No." column (configurations examined).
	Examined []EvalResult
	// Degraded reports that tuning was abandoned because a reading stayed
	// implausible after a re-measure; Best is then SafeConfig, the
	// graceful-degradation fallback.
	Degraded bool
	// Fault is the reading failure that caused the degradation.
	Fault error
}

// NumExamined is the number of configurations the search measured.
func (r SearchResult) NumExamined() int { return len(r.Examined) }

// Space is the configuration space a search walks: the candidate values per
// parameter in sweep order, a realisability check, and the starting point.
// DefaultSpace is the paper's 27-configuration space; GeometrySpace derives
// a space from a scalable-cache geometry (§3.4's larger-cache future work).
type Space struct {
	// Sizes, Assocs and Lines are candidate values, smallest first.
	Sizes, Assocs, Lines []int
	// Valid reports whether a combination is realisable.
	Valid func(cache.Config) bool
	// Start is the initial (smallest) configuration.
	Start cache.Config
}

// DefaultSpace returns the paper's four-bank configuration space.
func DefaultSpace() Space { return GeometrySpace(cache.FourBank()) }

// GeometrySpace returns the configuration space of a scalable geometry.
func GeometrySpace(geo cache.Geometry) Space {
	return Space{
		Sizes:  geo.SizeValues(),
		Assocs: geo.AssocValues(),
		Lines:  geo.LineValues(),
		Valid:  func(c cache.Config) bool { return geo.ValidateConfig(c) == nil },
		Start:  geo.MinConfig(),
	}
}

// SearchStep describes one heuristic decision as it is made — the Figure 6
// trajectory as data. The trace hook receives exactly one SearchStep per
// measurement the search requests, in request order; because the heuristic
// is a deterministic function of its measurement sequence, replaying a
// recorded transcript through the search re-emits the identical steps.
type SearchStep struct {
	// Step is the measurement ordinal within the search, 0-based.
	Step int
	// Phase is the parameter under sweep, or ParamInitial for the
	// starting measurement.
	Phase Param
	// Cfg and Energy are the configuration examined and its reading.
	Cfg    cache.Config
	Energy float64
	// Remeasured reports that the first reading failed the plausibility
	// check and this is the accepted second reading.
	Remeasured bool
	// Improved reports the reading strictly beat the sweep's incumbent —
	// the keep/stop decision (the initial measurement is never a sweep
	// decision and reports false).
	Improved bool
	// Stop reports the sweep stops after this measurement because the
	// reading failed to improve. A sweep can also end by exhausting its
	// candidates, in which case its last step has Stop false.
	Stop bool
}

// search is the Figure 6 heuristic as a pull-based state machine, the
// software twin of the FSMD of §3.5: Next names the configuration the next
// measurement must cover, Feed hands it the reading, and the machine advances
// one state per reading. The offline search drives it with replays, the online
// tuner with live measurement windows, and resume with a recorded transcript;
// because the machine is a deterministic function of its readings, all three
// walk the identical trajectory.
//
// A reading that fails Plausible is not consumed: the machine requests the
// same configuration again (the re-measure state). If the second reading is
// implausible too, the machine degrades — it stops, reporting SafeConfig as
// Best with the fault recorded. Only plausible readings are recorded and may
// steer the search.
type search struct {
	space Space
	order []Param
	trace func(SearchStep)

	res   SearchResult
	seen  map[cache.Config]bool
	steps int

	// phase indexes order; -1 is the initial measurement. cands are the
	// current sweep's candidates and next indexes the one requested. best
	// is the incumbent: a sweep keeps a candidate only if it strictly beats
	// it, so the sweep's best is also the search's.
	phase int
	cands []cache.Config
	next  int
	best  EvalResult

	remeasure bool // the pending request repeats a rejected reading
	done      bool
}

// newSearch starts a machine at the space's starting configuration. trace
// (may be nil) receives one SearchStep per accepted reading; it observes
// only and cannot steer the search.
func newSearch(order []Param, space Space, trace func(SearchStep)) *search {
	return &search{space: space, order: order, trace: trace, seen: map[cache.Config]bool{}, phase: -1}
}

// Next returns the configuration the next reading must measure, or done once
// the search has settled (see Result).
func (s *search) Next() (cfg cache.Config, done bool) {
	switch {
	case s.done:
		return cache.Config{}, true
	case s.phase < 0:
		return s.space.Start, false
	default:
		return s.cands[s.next], false
	}
}

// Feed hands the machine the reading of the configuration Next requested.
func (s *search) Feed(r EvalResult) {
	if err := Plausible(r); err != nil {
		if !s.remeasure {
			s.remeasure = true
			return
		}
		s.degrade(err)
		return
	}
	rm := s.remeasure
	s.remeasure = false
	if !s.seen[r.Cfg] {
		s.seen[r.Cfg] = true
		s.res.Examined = append(s.res.Examined, r)
	}
	if s.phase < 0 {
		s.emit(SearchStep{Phase: ParamInitial, Cfg: r.Cfg, Energy: r.Energy, Remeasured: rm})
		s.best = r
		s.openSweep(0)
		return
	}
	improved := r.Energy < s.best.Energy
	s.emit(SearchStep{Phase: s.order[s.phase], Cfg: r.Cfg, Energy: r.Energy,
		Remeasured: rm, Improved: improved, Stop: !improved})
	if improved {
		s.best = r
		if s.next++; s.next < len(s.cands) {
			return
		}
	}
	s.openSweep(s.phase + 1)
}

// openSweep opens the first sweep from phase on that has a candidate above
// the incumbent, or completes the search.
func (s *search) openSweep(phase int) {
	for ; phase < len(s.order); phase++ {
		if s.cands = s.candidates(s.order[phase], s.best.Cfg); len(s.cands) > 0 {
			s.phase, s.next = phase, 0
			return
		}
	}
	s.res.Best = s.best
	s.done = true
}

// degrade abandons the search after a reading stayed implausible on its
// re-measure, keeping the plausible measurements made so far.
func (s *search) degrade(err error) {
	s.res.Degraded = true
	s.res.Fault = err
	s.res.Best = EvalResult{Cfg: SafeConfig()}
	for _, r := range s.res.Examined {
		// Reuse a plausible measurement of the fallback if the search
		// happened to make one.
		if r.Cfg == s.res.Best.Cfg {
			s.res.Best = r
		}
	}
	s.done = true
}

// Result is the completed search (meaningful once Next reports done).
func (s *search) Result() SearchResult { return s.res }

// emit hands one decision to the trace hook and advances the step ordinal.
func (s *search) emit(st SearchStep) {
	st.Step = s.steps
	s.steps++
	if s.trace != nil {
		s.trace(st)
	}
}

// Search runs the heuristic with the given parameter order in the paper's
// four-bank configuration space, starting from the smallest configuration
// (2 KB, 1-way, 16 B, prediction off) and sweeping each parameter in the
// flush-free growth direction while energy keeps strictly decreasing
// (paper Figure 6).
func Search(eval Evaluator, order []Param) SearchResult {
	return SearchInSpace(eval, order, DefaultSpace())
}

// SearchInSpace runs the heuristic over an arbitrary configuration space —
// the §3.4 scalability path: with n parameters of m values each it examines
// at most m*n configurations instead of the space's full product.
//
// If a reading stays implausible after a re-measure (a wedged counter, a
// crashed replay), the search degrades gracefully instead of trusting
// garbage: it returns SafeConfig as Best with Degraded set and the fault
// recorded, keeping whatever plausible measurements it had already made in
// Examined.
func SearchInSpace(eval Evaluator, order []Param, space Space) SearchResult {
	return SearchTraced(eval, order, space, nil)
}

// SearchTraced is SearchInSpace with a step trace hook: trace (may be nil)
// receives one SearchStep per measurement, as the heuristic makes each
// decision. The hook observes only — it cannot steer the search — so a
// traced search returns bit-identical results to an untraced one.
func SearchTraced(eval Evaluator, order []Param, space Space, trace func(SearchStep)) SearchResult {
	s := newSearch(order, space, trace)
	for {
		cfg, done := s.Next()
		if done {
			return s.Result()
		}
		if s.remeasure {
			s.Feed(remeasure(eval, cfg))
		} else {
			s.Feed(eval.Evaluate(cfg))
		}
	}
}

// SearchPaper runs the paper's heuristic ordering.
func SearchPaper(eval Evaluator) SearchResult { return Search(eval, PaperOrder) }

// candidates lists the next values of parameter p above cur, skipping
// unrealisable combinations.
func (s *search) candidates(p Param, cur cache.Config) []cache.Config {
	var out []cache.Config
	switch p {
	case ParamSize:
		for _, size := range s.space.Sizes {
			if size <= cur.SizeBytes {
				continue
			}
			c := cur
			c.SizeBytes = size
			if s.space.Valid(c) {
				out = append(out, c)
			}
		}
	case ParamLine:
		for _, line := range s.space.Lines {
			if line <= cur.LineBytes {
				continue
			}
			c := cur
			c.LineBytes = line
			if s.space.Valid(c) {
				out = append(out, c)
			}
		}
	case ParamAssoc:
		for _, ways := range s.space.Assocs {
			if ways <= cur.Ways {
				continue
			}
			c := cur
			c.Ways = ways
			if s.space.Valid(c) {
				out = append(out, c)
			}
		}
	case ParamPred:
		if cur.Ways > 1 && !cur.WayPredict {
			c := cur
			c.WayPredict = true
			if s.space.Valid(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// Exhaustive measures all 27 configurations and returns the optimum — the
// baseline the heuristic's quality is judged against (paper §4).
func Exhaustive(eval Evaluator) SearchResult {
	return ExhaustiveConfigs(eval, cache.AllConfigs())
}

// ExhaustiveConfigs measures an explicit configuration list (e.g. a
// scalable geometry's Configs), fanning out across the replay engine's
// worker pool when the evaluator supports it.
func ExhaustiveConfigs(eval Evaluator, configs []cache.Config) SearchResult {
	return ExhaustiveWorkers(eval, configs, 0)
}

// ExhaustiveWorkers is ExhaustiveConfigs with an explicit worker count
// (non-positive means GOMAXPROCS). Each configuration's replay is
// independent and deterministic and the results are reduced in input order,
// so the outcome is bit-identical to a serial sweep at any worker count.
//
// Implausible readings (failed replays, impossible counters) are excluded
// from the optimum reduction — one crashed configuration costs one data
// point, not the sweep. If no reading at all is plausible, the result
// degrades to SafeConfig with Degraded set.
func ExhaustiveWorkers(eval Evaluator, configs []cache.Config, workers int) SearchResult {
	var results []EvalResult
	if be, ok := eval.(BatchEvaluator); ok {
		results = be.EvaluateAll(configs, workers)
	} else {
		results = make([]EvalResult, len(configs))
		for i, cfg := range configs {
			results[i] = eval.Evaluate(cfg)
		}
	}
	res := SearchResult{Examined: results}
	var fault error
	picked := false
	for _, r := range results {
		if err := Plausible(r); err != nil {
			if fault == nil {
				fault = err
			}
			continue
		}
		if !picked || r.Energy < res.Best.Energy {
			res.Best = r
			picked = true
		}
	}
	if !picked {
		res.Degraded = true
		res.Fault = fault
		res.Best = EvalResult{Cfg: SafeConfig()}
	}
	return res
}
