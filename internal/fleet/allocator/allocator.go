// Package allocator partitions a shared capacity budget across a fleet of
// tuning sessions using per-session miss-ratio curves — the multi-tenant
// face of the paper's single-cache tuning. Each session's completed search
// already measured miss rates at several cache sizes (the heuristic's size
// sweep); those measurements, taken as a piecewise-linear miss-ratio curve,
// let the fleet ask "which split of the budget saves the most misses?"
// across tenants instead of within one. DP answers it exactly as a grouped
// knapsack, so it can buy a unit that saves nothing on its own to reach a
// cliff behind it. It is deterministic: ties break toward smaller
// capacities, then toward the lexicographically smallest session ID.
//
// The shape follows DeepRec's CacheTuningStrategy (InterpolateMRC plus
// MinimalizeMissCount DP over per-cache MRC profiles), applied to the
// configurable cache's size axis.
package allocator

import (
	"fmt"
	"sort"

	"selftune/internal/tuner"
)

// Point is one measured point of a miss-ratio curve.
type Point struct {
	// Bytes is the cache capacity the rate was measured at.
	Bytes int
	// MissRate is the best (lowest) miss rate observed at that capacity.
	MissRate float64
}

// Profile is one session's miss-ratio curve plus the weight that converts
// rates to miss counts.
type Profile struct {
	// ID is the session the curve belongs to.
	ID string
	// Weight scales miss rates into comparable miss counts — accesses
	// per measurement window, or any per-tenant traffic weight. Zero
	// weight makes the session capacity-indifferent.
	Weight float64
	// Points is the curve, ascending by Bytes, at least one point.
	Points []Point
}

// FromResults builds a session's profile from a completed search's examined
// configurations: for each cache size the search measured, the curve keeps
// the best miss rate seen (the search sweeps associativity and line size at
// fixed sizes, so the minimum is the size's realisable best). Results with
// errors or zero accesses are skipped; ok is false when fewer than two
// distinct sizes remain — a single-point "curve" has no marginal-gain slope,
// so the allocator would treat the session as capacity-indifferent when it
// is merely under-measured (a budget-constrained search that never left the
// smallest size is the common producer of such transcripts).
func FromResults(id string, results []tuner.EvalResult) (Profile, bool) {
	best := map[int]float64{}
	var weight float64
	for _, r := range results {
		if r.Err != nil || r.Stats.Accesses == 0 {
			continue
		}
		mr := float64(r.Stats.Misses) / float64(r.Stats.Accesses)
		if cur, ok := best[r.Cfg.SizeBytes]; !ok || mr < cur {
			best[r.Cfg.SizeBytes] = mr
		}
		if acc := float64(r.Stats.Accesses); acc > weight {
			weight = acc
		}
	}
	if len(best) < 2 {
		return Profile{}, false
	}
	p := Profile{ID: id, Weight: weight}
	for size, mr := range best {
		p.Points = append(p.Points, Point{Bytes: size, MissRate: mr})
	}
	sort.Slice(p.Points, func(i, j int) bool { return p.Points[i].Bytes < p.Points[j].Bytes })
	return p, true
}

// MissRate interpolates the curve at bytes: linear between measured points,
// clamped flat beyond either end (the InterpolateMRC shape).
func (p Profile) MissRate(bytes int) float64 {
	pts := p.Points
	if len(pts) == 0 {
		return 0
	}
	if bytes <= pts[0].Bytes {
		return pts[0].MissRate
	}
	if bytes >= pts[len(pts)-1].Bytes {
		return pts[len(pts)-1].MissRate
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Bytes >= bytes }) // pts[i-1].Bytes < bytes < pts[i].Bytes
	lo, hi := pts[i-1], pts[i]
	t := float64(bytes-lo.Bytes) / float64(hi.Bytes-lo.Bytes)
	return lo.MissRate + t*(hi.MissRate-lo.MissRate)
}

// Misses is the expected miss count at bytes: MissRate times Weight.
func (p Profile) Misses(bytes int) float64 { return p.MissRate(bytes) * p.Weight }

// MinBytes and MaxBytes bound the capacities the allocator may assign the
// session: the curve's measured extremes.
func (p Profile) MinBytes() int { return p.Points[0].Bytes }
func (p Profile) MaxBytes() int { return p.Points[len(p.Points)-1].Bytes }

// Assignment is one session's share of the budget.
type Assignment struct {
	ID     string
	Bytes  int
	Misses float64
}

// Plan is a complete partition of the budget.
type Plan struct {
	// TotalBytes and Unit echo the request.
	TotalBytes, Unit int
	// Assignments is sorted by session ID; every session holds at least
	// its profile's minimum capacity.
	Assignments []Assignment
	// AssignedBytes is the capacity handed out (DP leaves units unassigned
	// when no curve improves with them, so it can be under TotalBytes).
	AssignedBytes int
	// TotalMisses is the plan's expected miss count per window.
	TotalMisses float64
}

// prep validates a request and returns the profiles sorted by ID.
func prep(total, unit int, profiles []Profile) ([]Profile, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("allocator: unit must be positive, got %d", unit)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("allocator: no profiles")
	}
	sorted := append([]Profile(nil), profiles...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	need := 0
	for i, p := range sorted {
		if len(p.Points) == 0 {
			return nil, fmt.Errorf("allocator: profile %q has no curve points", p.ID)
		}
		if i > 0 && sorted[i-1].ID == p.ID {
			return nil, fmt.Errorf("allocator: duplicate profile %q", p.ID)
		}
		need += p.MinBytes()
	}
	if need > total {
		return nil, fmt.Errorf("allocator: budget %d B cannot cover the sessions' %d B minimum footprint", total, need)
	}
	return sorted, nil
}

// finish computes a plan's totals.
func finish(total, unit int, profs []Profile, bytes []int) Plan {
	plan := Plan{TotalBytes: total, Unit: unit}
	for i, p := range profs {
		m := p.Misses(bytes[i])
		plan.Assignments = append(plan.Assignments, Assignment{ID: p.ID, Bytes: bytes[i], Misses: m})
		plan.AssignedBytes += bytes[i]
		plan.TotalMisses += m
	}
	return plan
}

// DP partitions total bytes optimally: it minimises the summed expected
// miss count over all per-session capacities that are curve minima plus a
// whole number of units (grouped knapsack over unit-granular budgets).
// Among equal-miss plans it hands out the fewest units, and among those it
// gives the later sessions (by ID) the smaller capacities. The output is a
// pure function of the inputs.
func DP(total, unit int, profiles []Profile) (Plan, error) {
	profs, err := prep(total, unit, profiles)
	if err != nil {
		return Plan{}, err
	}
	// Budget in units beyond the summed minima: session i's choice is
	// minBytes[i] + k*unit for k in [0, maxK[i]].
	minSum, maxSum := 0, 0
	for _, p := range profs {
		minSum += p.MinBytes()
		maxSum += (p.MaxBytes() - p.MinBytes()) / unit
	}
	// Units past every curve's end are unreachable, so the table stops at
	// their sum however large the budget.
	budget := (total - minSum) / unit
	if budget > maxSum {
		budget = maxSum
	}
	const inf = 1e308
	// dp[b] after considering sessions [0..i): minimal misses using
	// exactly b extra units; parent choice recorded per session.
	dp := make([]float64, budget+1)
	for b := 1; b <= budget; b++ {
		dp[b] = inf
	}
	choice := make([][]int, len(profs))
	for i, p := range profs {
		maxK := (p.MaxBytes() - p.MinBytes()) / unit
		next := make([]float64, budget+1)
		pick := make([]int, budget+1)
		for b := 0; b <= budget; b++ {
			next[b] = inf
			for k := 0; k <= maxK && k <= b; k++ {
				if dp[b-k] >= inf {
					continue
				}
				cost := dp[b-k] + p.Misses(p.MinBytes()+k*unit) - p.Misses(p.MinBytes())
				// Strict improvement keeps the smallest k (iterated
				// ascending) among equal-miss options.
				if cost < next[b] {
					next[b], pick[b] = cost, k
				}
			}
		}
		dp, choice[i] = next, pick
	}
	// The best reachable budget: extra units may go unused when every
	// curve has flattened.
	bestB, bestCost := 0, dp[0]
	for b := 1; b <= budget; b++ {
		if dp[b] < bestCost {
			bestB, bestCost = b, dp[b]
		}
	}
	bytes := make([]int, len(profs))
	b := bestB
	for i := len(profs) - 1; i >= 0; i-- {
		k := choice[i][b]
		bytes[i] = profs[i].MinBytes() + k*unit
		b -= k
	}
	return finish(total, unit, profs, bytes), nil
}
