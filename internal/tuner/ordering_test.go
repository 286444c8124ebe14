package tuner

import (
	"sort"
	"testing"

	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func TestAllOrdersEnumerates24(t *testing.T) {
	orders := AllOrders()
	if len(orders) != 24 {
		t.Fatalf("AllOrders = %d, want 24", len(orders))
	}
	seen := map[string]bool{}
	for _, o := range orders {
		name := OrderName(o)
		if seen[name] {
			t.Errorf("duplicate ordering %s", name)
		}
		seen[name] = true
		if len(o) != 4 {
			t.Errorf("ordering %s has %d params", name, len(o))
		}
	}
	if !seen["size>line>assoc>pred"] || !seen["line>assoc>pred>size"] {
		t.Error("paper and alternative orderings missing from enumeration")
	}
}

// TestOrderingTournament runs all 24 parameter orderings over the benchmark
// suite and checks the paper's §3.2 impact analysis: the size-first
// orderings dominate, and the paper's specific ordering is among the best.
func TestOrderingTournament(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament is slow")
	}
	p := energy.DefaultParams()
	type stream struct {
		ev  *TraceEvaluator
		opt float64
	}
	profiles := workload.Profiles()
	perProfile := engine.Parallel(len(profiles), 0, func(i int) []stream {
		accs := profiles[i].Generate(100_000)
		inst, data := trace.Split(accs)
		var out []stream
		for _, s := range [][]trace.Access{inst, data} {
			ev := NewTraceEvaluator(s, p)
			out = append(out, stream{ev, Exhaustive(ev).Best.Energy})
		}
		return out
	})
	var streams []stream
	for _, ss := range perProfile {
		streams = append(streams, ss...)
	}

	type entry struct {
		name   string
		excess float64 // summed heuristic/optimal - 1
		misses int
	}
	// Each ordering's searches share the streams' memoised evaluators, so
	// the orderings fan out safely and every config replays at most once.
	orders := AllOrders()
	table := engine.Parallel(len(orders), 0, func(oi int) entry {
		order := orders[oi]
		e := entry{name: OrderName(order)}
		for _, s := range streams {
			res := Search(s.ev, order)
			e.excess += res.Best.Energy/s.opt - 1
			if res.Best.Energy > s.opt*1.0001 {
				e.misses++
			}
		}
		return e
	})
	sort.Slice(table, func(i, j int) bool { return table[i].excess < table[j].excess })

	rankPaper := -1
	for i, e := range table {
		if e.name == OrderName(PaperOrder) {
			rankPaper = i
		}
		t.Logf("#%2d %-26s misses=%2d summed-excess=%.3f", i+1, e.name, e.misses, e.excess)
	}
	if rankPaper < 0 {
		t.Fatal("paper ordering missing from tournament")
	}
	if rankPaper >= len(table)/3 {
		t.Errorf("paper ordering ranked #%d of %d; §3.2's impact analysis says it should lead", rankPaper+1, len(table))
	}
	// Size-first orderings should fill the top of the table.
	sizeFirstInTop := 0
	for _, e := range table[:6] {
		if len(e.name) >= 4 && e.name[:4] == "size" {
			sizeFirstInTop++
		}
	}
	if sizeFirstInTop < 4 {
		t.Errorf("only %d of the top 6 orderings are size-first", sizeFirstInTop)
	}
}
