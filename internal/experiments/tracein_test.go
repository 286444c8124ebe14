package experiments

import (
	"context"
	"strings"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// traceAccesses keeps the recorded-trace pins as cheap as the goldens.
const traceAccesses = 20_000

// TestFigure2TraceMatchesFigure2 pins the recorded-trace entry to the
// synthetic one: the parser stream recorded and replayed gives the same
// points, compared with ==.
func TestFigure2TraceMatchesFigure2(t *testing.T) {
	got, err := Figure2TraceCtx(context.Background(), "parser",
		workload.ParserLike().Generate(traceAccesses), energy.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := figure2(t, traceAccesses, 0)
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTable1TraceMatchesTable1 pins each profile's stream, run through the
// recorded-trace entry, to that profile's row of the synthetic table. Only
// the paper's published selections, which a recorded trace does not carry,
// differ.
func TestTable1TraceMatchesTable1(t *testing.T) {
	full := table1(t, traceAccesses, 0)
	for i, prof := range workload.Profiles() {
		r, err := Table1TraceCtx(context.Background(), prof.Name, prof.Generate(traceAccesses), energy.DefaultParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", prof.Name, len(r.Rows))
		}
		want := full.Rows[i]
		want.PaperI, want.PaperD = "", ""
		if r.Rows[0] != want {
			t.Fatalf("%s: trace row %+v, want %+v", prof.Name, r.Rows[0], want)
		}
	}
}

// TestFigure34TraceMatchesSweep pins the recorded-trace entry to a plain
// sweep of the base configurations over the selected stream: per-config
// miss rate and energy as measured, normalised by the largest energy.
func TestFigure34TraceMatchesSweep(t *testing.T) {
	prof, _ := workload.ByName("g721")
	accs := prof.Generate(traceAccesses)
	p := energy.DefaultParams()
	m := engine.Configurable(p)
	m.NoDrain = true
	for _, inst := range []bool{true, false} {
		stream := trace.OnlyData(accs)
		if inst {
			stream = trace.OnlyInst(accs)
		}
		results := engine.Sweep(stream, m, cache.BaseConfigs(), 0)
		got, err := Figure34TraceCtx(context.Background(), prof.Name, accs, inst, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(results) {
			t.Fatalf("inst=%v: %d rows, want %d", inst, len(got), len(results))
		}
		maxE := 0.0
		for _, r := range results {
			if r.Energy > maxE {
				maxE = r.Energy
			}
		}
		for i, r := range results {
			want := Fig34Row{Cfg: r.Cfg, AvgMissRate: r.Stats.MissRate(), Energy: r.Energy, Normalised: r.Energy / maxE}
			if got[i] != want {
				t.Fatalf("inst=%v: row %d = %+v, want %+v", inst, i, got[i], want)
			}
		}
	}
}

// TestTraceEntriesRefuseEmptyStreams pins each entry's error for a trace
// that lacks the stream it measures.
func TestTraceEntriesRefuseEmptyStreams(t *testing.T) {
	ctx := context.Background()
	p := energy.DefaultParams()
	accs := workload.ParserLike().Generate(traceAccesses)
	dataOnly, instOnly := trace.OnlyData(accs), trace.OnlyInst(accs)
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	_, err := Table1TraceCtx(ctx, "d", dataOnly, p, 0)
	check("Table1TraceCtx, data only", err, "Table 1 needs both streams")
	_, err = Table1TraceCtx(ctx, "i", instOnly, p, 0)
	check("Table1TraceCtx, instructions only", err, "Table 1 needs both streams")
	_, err = Figure2TraceCtx(ctx, "i", instOnly, p, 0)
	check("Figure2TraceCtx", err, "has no data accesses")
	_, err = Figure34TraceCtx(ctx, "d", dataOnly, true, p, 0)
	check("Figure34TraceCtx, inst", err, "has no instruction accesses")
	_, err = Figure34TraceCtx(ctx, "i", instOnly, false, p, 0)
	check("Figure34TraceCtx, data", err, "has no data accesses")
}
