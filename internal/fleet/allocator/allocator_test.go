package allocator

import (
	"math"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/tuner"
)

// curve builds a profile from (bytes, missRate) pairs with weight w.
func curve(id string, w float64, pairs ...float64) Profile {
	p := Profile{ID: id, Weight: w}
	for i := 0; i < len(pairs); i += 2 {
		p.Points = append(p.Points, Point{Bytes: int(pairs[i]), MissRate: pairs[i+1]})
	}
	return p
}

func TestMissRateInterpolation(t *testing.T) {
	p := curve("a", 1, 2048, 0.4, 4096, 0.2, 8192, 0.1)
	cases := []struct {
		bytes int
		want  float64
	}{
		{1024, 0.4},  // clamp below
		{2048, 0.4},  // exact point
		{3072, 0.3},  // midpoint
		{4096, 0.2},  // exact point
		{6144, 0.15}, // midpoint of second segment
		{8192, 0.1},  // exact point
		{16384, 0.1}, // clamp above
	}
	for _, c := range cases {
		if got := p.MissRate(c.bytes); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MissRate(%d) = %g, want %g", c.bytes, got, c.want)
		}
	}
}

func TestFromResults(t *testing.T) {
	rs := []tuner.EvalResult{
		{Cfg: cache.Config{SizeBytes: 4096}, Stats: cache.Stats{Accesses: 10_000, Misses: 2_000}},
		{Cfg: cache.Config{SizeBytes: 4096}, Stats: cache.Stats{Accesses: 10_000, Misses: 1_500}}, // better at same size
		{Cfg: cache.Config{SizeBytes: 2048}, Stats: cache.Stats{Accesses: 10_000, Misses: 4_000}},
		{Cfg: cache.Config{SizeBytes: 8192}, Stats: cache.Stats{Accesses: 0}}, // unusable: no accesses
	}
	p, ok := FromResults("s1", rs)
	if !ok {
		t.Fatal("FromResults rejected usable results")
	}
	want := []Point{{2048, 0.4}, {4096, 0.15}}
	if !reflect.DeepEqual(p.Points, want) {
		t.Fatalf("points = %v, want %v", p.Points, want)
	}
	if p.Weight != 10_000 {
		t.Fatalf("weight = %g, want 10000", p.Weight)
	}
	if _, ok := FromResults("s2", nil); ok {
		t.Fatal("FromResults accepted empty results")
	}
}

func TestFromResultsNeedsTwoSizes(t *testing.T) {
	// A transcript that never left one size (a tightly budget-constrained
	// search, say) yields no curve slope; the profile must be rejected, not
	// degenerate to a flat single-point curve.
	one := []tuner.EvalResult{
		{Cfg: cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 16}, Stats: cache.Stats{Accesses: 10_000, Misses: 4_000}},
		{Cfg: cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 32}, Stats: cache.Stats{Accesses: 10_000, Misses: 3_000}},
	}
	if _, ok := FromResults("s1", one); ok {
		t.Fatal("FromResults accepted a single-size transcript")
	}
	// A second distinct size — even via one extra measurement — makes it usable.
	two := append(one, tuner.EvalResult{
		Cfg: cache.Config{SizeBytes: 4096, Ways: 1, LineBytes: 32}, Stats: cache.Stats{Accesses: 10_000, Misses: 2_000},
	})
	p, ok := FromResults("s1", two)
	if !ok {
		t.Fatal("FromResults rejected a two-size transcript")
	}
	if len(p.Points) != 2 {
		t.Fatalf("points = %v, want 2 sizes", p.Points)
	}
}

func TestIdenticalProfilesTieBreakPinned(t *testing.T) {
	// Two sessions with byte-identical curves: every marginal unit is a tie,
	// and every tie must go to the lexicographically smallest ID, so the full
	// plan is pinned. One extra unit on top of the minima goes to "a".
	mk := func(id string) Profile { return curve(id, 10_000, 2048, 0.4, 4096, 0.2, 8192, 0.1) }
	for _, order := range [][]Profile{
		{mk("a"), mk("b")},
		{mk("b"), mk("a")},
	} {
		plan, err := DP(2048*3, 2048, order)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Assignments[0]; got.ID != "a" || got.Bytes != 4096 {
			t.Fatalf("identical-profile tie went to %v, want a=4096", got)
		}
		if got := plan.Assignments[1]; got.ID != "b" || got.Bytes != 2048 {
			t.Fatalf("identical-profile tie left %v, want b=2048", got)
		}
	}
}

func TestSingleSessionBudgetEqualsMinimum(t *testing.T) {
	// The degenerate admission boundary: exactly one session, budget exactly
	// its curve's minimum footprint. DP must accept and assign precisely the
	// minimum.
	p := curve("solo", 10_000, 2048, 0.4, 8192, 0.1)
	got, err := DP(2048, 2048, []Profile{p})
	if err != nil {
		t.Fatalf("budget==minimum rejected: %v", err)
	}
	if len(got.Assignments) != 1 || got.Assignments[0].Bytes != 2048 || got.AssignedBytes != 2048 {
		t.Fatalf("plan = %+v, want exactly the 2048 B minimum", got)
	}
}

func TestDPHandComputed(t *testing.T) {
	// a saves 1000 misses for its first extra 2048 B (steep curve), b saves
	// 600, a's second unit saves 200 (interpolated to 6144 B) and b's second
	// 50. The best use of 3 extra units is a, a, b: 1800 + 1400 misses.
	a := curve("a", 10_000, 2048, 0.30, 4096, 0.20, 8192, 0.16)
	b := curve("b", 10_000, 2048, 0.20, 4096, 0.14, 8192, 0.13)
	plan, err := DP(2048*2+2048*3, 2048, []Profile{b, a})
	if err != nil {
		t.Fatal(err)
	}
	want := []Assignment{
		{ID: "a", Bytes: 6144, Misses: 0.18 * 10_000},
		{ID: "b", Bytes: 4096, Misses: 0.14 * 10_000},
	}
	if len(plan.Assignments) != len(want) {
		t.Fatalf("assignments = %v, want %v", plan.Assignments, want)
	}
	for i, w := range want {
		got := plan.Assignments[i]
		if got.ID != w.ID || got.Bytes != w.Bytes || math.Abs(got.Misses-w.Misses) > 1e-9 {
			t.Fatalf("assignments[%d] = %v, want %v", i, got, w)
		}
	}
	if plan.AssignedBytes != 6144+4096 {
		t.Fatalf("assigned %d B, want %d", plan.AssignedBytes, 6144+4096)
	}
}

func TestDPStopsWhenCurvesFlatten(t *testing.T) {
	// Both curves are flat: no unit saves a miss, so the surplus budget
	// stays unassigned.
	a := curve("a", 10_000, 2048, 0.2, 8192, 0.2)
	b := curve("b", 10_000, 2048, 0.1, 8192, 0.1)
	plan, err := DP(1<<20, 2048, []Profile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AssignedBytes != 4096 {
		t.Fatalf("assigned %d B to flat curves, want the 4096 B minimum", plan.AssignedBytes)
	}
}

func TestDPCrossesACliff(t *testing.T) {
	// a's first unit saves slightly more than b's (1100 vs 1000 misses), but
	// b's curve then falls off a cliff that a's does not. At 8192 B (two
	// extra units) a marginal-gain hill climb spends its first unit on a and
	// never reaches the cliff; DP gives both units to b: 5000 + 1000 misses
	// against the climb's 3900 + 4000.
	a := curve("a", 10_000, 2048, 0.50, 4096, 0.39, 6144, 0.38, 8192, 0.37)
	b := curve("b", 10_000, 2048, 0.50, 4096, 0.40, 6144, 0.10, 8192, 0.05)
	plan, err := DP(8192, 2048, []Profile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assignments[0].Bytes != 2048 || plan.Assignments[1].Bytes != 6144 {
		t.Fatalf("DP plan %+v, want a=2048 and b=6144 (past the cliff)", plan.Assignments)
	}
	if math.Abs(plan.TotalMisses-6000) > 1e-9 {
		t.Fatalf("TotalMisses = %g, want 6000", plan.TotalMisses)
	}
	for budget := 4096; budget <= 16384; budget += 2048 {
		p, err := DP(budget, 2048, []Profile{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if p.AssignedBytes > budget {
			t.Fatalf("budget %d overspent: %d", budget, p.AssignedBytes)
		}
	}
}

func TestAllocationDeterministic(t *testing.T) {
	profs := []Profile{
		curve("c", 5_000, 2048, 0.3, 4096, 0.2, 8192, 0.1),
		curve("a", 10_000, 2048, 0.4, 4096, 0.2, 8192, 0.15),
		curve("b", 8_000, 2048, 0.25, 4096, 0.18, 8192, 0.12),
	}
	d1, err := DP(18432, 2048, profs)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled input order must not change the plan.
	shuffled := []Profile{profs[2], profs[0], profs[1]}
	for i := 0; i < 5; i++ {
		d2, err := DP(18432, 2048, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("dp not deterministic:\n%v\n%v", d1, d2)
		}
	}
	ids := []string{}
	for _, a := range d1.Assignments {
		ids = append(ids, a.ID)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b", "c"}) {
		t.Fatalf("assignments not sorted by ID: %v", ids)
	}
}

func TestAllocationErrors(t *testing.T) {
	p := curve("a", 1, 2048, 0.5, 4096, 0.4)
	if _, err := DP(1024, 2048, []Profile{p}); err == nil {
		t.Fatal("budget below minimum footprint accepted")
	}
	if _, err := DP(8192, 0, []Profile{p}); err == nil {
		t.Fatal("zero unit accepted")
	}
	if _, err := DP(8192, 2048, nil); err == nil {
		t.Fatal("no profiles accepted")
	}
	if _, err := DP(8192, 2048, []Profile{p, p}); err == nil {
		t.Fatal("duplicate profile accepted")
	}
	if _, err := DP(8192, 2048, []Profile{{ID: "x"}}); err == nil {
		t.Fatal("empty curve accepted")
	}
}
