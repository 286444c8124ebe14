package allocator

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleUnit is the allocation unit of the brute-force cases: the
// configurable cache's bank size, the unit the fleet plans in.
const oracleUnit = 2048

// byteSource deals small integers out of fuzz input, zeros once it runs dry.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// oracleCase decodes one to four profiles and a small budget from data. The
// curves are arbitrary (non-convex, with cliffs, rising as well as falling)
// but every value they take at a unit-granular capacity is a dyadic
// fraction with a few bits: miss rates are multiples of 1/64, points lie
// 1, 2 or 4 units apart (so interpolation divides by a power of two) and
// weights are small integers. Every plan's miss total is then exact in
// float64, so equal-miss plans compare equal and the tie rule is testable.
func oracleCase(data []byte) (int, []Profile) {
	src := byteSource(data)
	weights := []float64{0, 1, 3, 1000, 1024}
	gaps := []int{1, 2, 4}
	n := 1 + src.next(4)
	profs := make([]Profile, n)
	total := 0
	for i := range profs {
		// IDs run against input order, so DP's sort by ID is exercised.
		p := Profile{ID: string(rune('d' - i)), Weight: weights[src.next(len(weights))]}
		bytes := oracleUnit * (1 + src.next(2))
		total += bytes
		for j := 1 + src.next(4); j > 0; j-- {
			p.Points = append(p.Points, Point{Bytes: bytes, MissRate: float64(src.next(65)) / 64})
			bytes += oracleUnit * gaps[src.next(len(gaps))]
		}
		profs[i] = p
	}
	// Up to eight units beyond the minima, sometimes with a half-unit
	// remainder no assignment can use.
	total += oracleUnit*src.next(9) + oracleUnit/2*src.next(2)
	return total, profs
}

// bruteForce enumerates every unit-granular assignment within total and
// returns the units each profile (sorted by ID) gets beyond its curve's
// minimum in the best plan: fewest misses, then fewest units handed out,
// then the smallest share for the last session, the one before it, and so
// on — the order DP's table breaks ties in.
func bruteForce(total int, profs []Profile) []int {
	left := total
	for _, p := range profs {
		left -= p.MinBytes()
	}
	var best []int
	var bestMisses float64
	k := make([]int, len(profs))
	better := func(misses float64) bool {
		if best == nil || misses != bestMisses {
			return best == nil || misses < bestMisses
		}
		units, bestUnits := 0, 0
		for i := range k {
			units += k[i]
			bestUnits += best[i]
		}
		if units != bestUnits {
			return units < bestUnits
		}
		for i := len(k) - 1; i >= 0; i-- {
			if k[i] != best[i] {
				return k[i] < best[i]
			}
		}
		return false
	}
	var walk func(i, left int)
	walk = func(i, left int) {
		if i == len(profs) {
			misses := 0.0
			for j, p := range profs {
				misses += p.Misses(p.MinBytes() + k[j]*oracleUnit)
			}
			if better(misses) {
				best, bestMisses = append([]int(nil), k...), misses
			}
			return
		}
		p := profs[i]
		for k[i] = 0; p.MinBytes()+k[i]*oracleUnit <= p.MaxBytes() && k[i]*oracleUnit <= left; k[i]++ {
			walk(i+1, left-k[i]*oracleUnit)
		}
	}
	walk(0, left)
	return best
}

// checkDPAgainstBruteForce holds DP's plan for the case data decodes to the
// exhaustive optimum: the same miss total and, among equal-miss plans, the
// same choice.
func checkDPAgainstBruteForce(t *testing.T, data []byte) {
	t.Helper()
	total, profs := oracleCase(data)
	plan, err := DP(total, oracleUnit, profs)
	if err != nil {
		t.Fatalf("DP(%d, %+v): %v", total, profs, err)
	}
	sorted, err := prep(total, oracleUnit, profs)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(total, sorted)
	got := make([]int, len(plan.Assignments))
	wantMisses := 0.0
	for i, a := range plan.Assignments {
		p := sorted[i]
		if a.ID != p.ID {
			t.Fatalf("assignment %d is %q, want %q (sorted by ID)", i, a.ID, p.ID)
		}
		got[i] = (a.Bytes - p.MinBytes()) / oracleUnit
		wantMisses += p.Misses(p.MinBytes() + want[i]*oracleUnit)
	}
	if plan.TotalMisses != wantMisses {
		t.Fatalf("budget %d, profiles %+v: DP misses %v, brute-force minimum %v",
			total, sorted, plan.TotalMisses, wantMisses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budget %d, profiles %+v: DP extra units %v, brute force picks %v among equal-miss plans",
			total, sorted, got, want)
	}
	if plan.AssignedBytes > total {
		t.Fatalf("plan overspends %d B: %+v", total, plan)
	}
}

// TestDPMatchesBruteForce is the allocator's oracle: on random small fleets
// DP finds the exhaustive optimum and breaks its ties the same way.
func TestDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 48)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkDPAgainstBruteForce(t, data)
	}
}

func FuzzDPVsBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 3, 64, 0, 32, 2, 0, 1, 3, 1, 60, 0, 10, 0, 5, 8, 1})
	f.Fuzz(checkDPAgainstBruteForce)
}
