package tuner

import (
	"fmt"
	"math"

	"selftune/internal/cache"
)

// This file is the tuner's defence against bad measurements. An in-situ
// tuner reads hardware counters that can saturate, wedge, or glitch; a
// search that trusts every reading blindly will happily settle on a
// configuration chosen by garbage. The policy, applied identically to the
// offline search and the online tuner:
//
//  1. Every reading passes Plausible before it may steer the search.
//  2. An implausible reading is re-measured once (a fresh replay offline,
//     the next measurement window online) — transient faults clear here.
//  3. If the re-measure is also implausible, tuning is abandoned and the
//     cache falls back to SafeConfig, the paper's 8 KB 4-way base: the one
//     configuration that is never badly wrong on any benchmark. The search
//     reports Degraded with the offending fault; an online session keeps
//     serving accesses throughout.

// SafeConfig is the graceful-degradation fallback: the paper's fixed 8 KB
// four-way base cache, the configuration the whole of Table 1 measures
// savings against precisely because it is the safe default.
func SafeConfig() cache.Config { return cache.BaseConfig() }

// Plausible reports whether a measurement could have come from a correctly
// counting cache: a failed replay, a non-finite or negative energy, an
// empty window, or arithmetically impossible counters (hits+misses !=
// accesses, more writes than accesses) all disqualify a reading from
// steering the search.
func Plausible(r EvalResult) error {
	if r.Err != nil {
		return fmt.Errorf("tuner: replay failed: %w", r.Err)
	}
	if math.IsNaN(r.Energy) || math.IsInf(r.Energy, 0) || r.Energy < 0 {
		return fmt.Errorf("tuner: non-finite or negative energy %v for %v", r.Energy, r.Cfg)
	}
	st := r.Stats
	if st == (cache.Stats{}) {
		// A reading with no counters at all is either a synthetic
		// evaluator (tests, the FSMD model) that prices configurations
		// directly — fine — or a wedged counter latch that never captured
		// the window. The two are distinguishable: a real window always
		// accrues static energy, so all-zero counters with zero energy can
		// only be a stuck readout.
		if r.Energy == 0 {
			return fmt.Errorf("tuner: all-zero reading for %v (stuck counters?)", r.Cfg)
		}
		return nil
	}
	if st.Accesses == 0 {
		return fmt.Errorf("tuner: zero-access reading for %v", r.Cfg)
	}
	if st.Hits+st.Misses != st.Accesses {
		return fmt.Errorf("tuner: impossible counters for %v: hits %d + misses %d != accesses %d",
			r.Cfg, st.Hits, st.Misses, st.Accesses)
	}
	if st.Writes > st.Accesses {
		return fmt.Errorf("tuner: impossible counters for %v: writes %d > accesses %d",
			r.Cfg, st.Writes, st.Accesses)
	}
	return nil
}

// Remeasurer is implemented by evaluators that can produce a genuinely
// fresh second reading of a configuration (bypassing any memoisation). The
// offline search uses it for the re-measure step; evaluators without it are
// simply evaluated again. The online tuner needs neither: its re-measure is
// the next window.
type Remeasurer interface {
	Remeasure(cfg cache.Config) EvalResult
}

// remeasure obtains a second, fresh reading of cfg from eval.
func remeasure(eval Evaluator, cfg cache.Config) EvalResult {
	if rm, ok := eval.(Remeasurer); ok {
		return rm.Remeasure(cfg)
	}
	return eval.Evaluate(cfg)
}
