package core

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/workload"
)

func run(t *testing.T, name string, opts Options, max int) *System {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	s := New(opts)
	s.Run(prof.Generate(max))
	return s
}

func TestTuneOnceSettles(t *testing.T) {
	s := run(t, "crc", Options{Window: 4000}, 800_000)
	if s.Tuning() {
		t.Fatal("system still tuning after 800k accesses")
	}
	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want one per cache", len(evs))
	}
	for _, e := range evs {
		if e.Examined < 2 || e.Examined > 9 {
			t.Errorf("%s$ examined %d configs", e.Cache, e.Examined)
		}
		if e.TunerEnergy <= 0 || e.TunerEnergy > 1e-7 {
			t.Errorf("%s$ tuner energy %g J implausible", e.Cache, e.TunerEnergy)
		}
		if e.Chosen.Validate() != nil {
			t.Errorf("%s$ chose invalid config %v", e.Cache, e.Chosen)
		}
	}
	if s.IConfig() == (cache.Config{}) {
		t.Error("no I config")
	}
}

func TestTuneOnceDoesNotRetune(t *testing.T) {
	s := run(t, "bcnt", Options{Window: 3000, Mode: TuneOnce}, 1_200_000)
	if got := len(s.Events()); got != 2 {
		t.Errorf("TuneOnce produced %d sessions, want 2", got)
	}
}

func TestPeriodicRetunes(t *testing.T) {
	s := run(t, "fir", Options{Window: 3000, Mode: TunePeriodic, Period: 60_000}, 1_500_000)
	if got := len(s.Events()); got < 4 {
		t.Errorf("periodic mode produced %d sessions, want several", got)
	}
}

func TestPhaseChangeRetunes(t *testing.T) {
	// Stitch two very different workloads together: the phase detector
	// must notice the switch and re-tune.
	a, _ := workload.ByName("bcnt")
	b, _ := workload.ByName("blit")
	accs := append(a.Generate(400_000), b.Generate(400_000)...)

	s := New(Options{Window: 4000, Mode: TuneOnPhaseChange, PhaseThreshold: 0.01})
	s.Run(accs)
	evs := s.Events()
	if len(evs) < 3 {
		t.Fatalf("phase mode produced %d sessions; expected a re-tune after the workload switch", len(evs))
	}
	// The re-tune after the switch must move the data cache away from
	// bcnt's tiny working set towards blit's conflicting strips.
	var first, last cache.Config
	for _, e := range evs {
		if e.Cache != "D" {
			continue
		}
		if first == (cache.Config{}) {
			first = e.Chosen
		}
		last = e.Chosen
	}
	if first == (cache.Config{}) {
		t.Fatal("no data-cache sessions")
	}
	if last == first {
		t.Errorf("data cache stayed at %v across a bcnt->blit phase change", first)
	}
	if last.SizeBytes < 8192 || last.Ways < 2 {
		t.Errorf("post-switch data config %v does not reflect blit's conflicting strips", last)
	}
}

func TestStablePhaseDoesNotRetune(t *testing.T) {
	prof, _ := workload.ByName("bcnt")
	s := New(Options{Window: 4000, Mode: TuneOnPhaseChange, PhaseThreshold: 0.05})
	// Skip the init phase so the monitored stream is stationary.
	accs := prof.Generate(1_000_000)[45_000:]
	s.Run(accs)
	if got := len(s.Events()); got != 2 {
		t.Errorf("stationary workload re-tuned: %d sessions", got)
	}
}

func TestReportAccounting(t *testing.T) {
	s := run(t, "adpcm", Options{Window: 4000}, 600_000)
	r := s.Report()
	if r.IStats.Accesses == 0 || r.DStats.Accesses == 0 {
		t.Fatal("cumulative stats empty")
	}
	if r.IStats.Accesses+r.DStats.Accesses != 600_000 {
		t.Errorf("accesses = %d + %d, want 600000 total", r.IStats.Accesses, r.DStats.Accesses)
	}
	if r.IStats.Hits+r.IStats.Misses != r.IStats.Accesses {
		t.Errorf("I stats inconsistent: %+v", r.IStats)
	}
	if r.IBreak.Total() <= 0 || r.DBreak.Total() <= 0 {
		t.Error("non-positive energy report")
	}
	if r.TunerEnergy <= 0 {
		t.Error("tuner energy missing from report")
	}
	// The tuner's cost is negligible next to memory-access energy
	// (paper §4: nanojoules vs millijoules).
	if r.TunerEnergy > 1e-4*(r.IBreak.Total()+r.DBreak.Total()) {
		t.Errorf("tuner energy %g J not negligible vs %g J", r.TunerEnergy, r.IBreak.Total()+r.DBreak.Total())
	}
}

func TestModeString(t *testing.T) {
	if TuneOnce.String() != "once" || TunePeriodic.String() != "periodic" || TuneOnPhaseChange.String() != "phase" {
		t.Error("mode names wrong")
	}
}

func TestDefaultsFilled(t *testing.T) {
	s := New(Options{})
	if s.opts.Window == 0 || s.opts.Period == 0 || s.opts.PhaseThreshold == 0 || s.opts.Params == nil {
		t.Errorf("defaults not filled: %+v", s.opts)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestVictimBufferOption(t *testing.T) {
	prof, _ := workload.ByName("tv") // conflict-heavy data strips
	plain := New(Options{Window: 5000})
	plain.Run(prof.Generate(500_000))
	vb := New(Options{Window: 5000, VictimEntries: 8})
	vb.Run(prof.Generate(500_000))

	rp, rv := plain.Report(), vb.Report()
	if rv.DStats.VictimProbes == 0 {
		t.Fatal("victim buffer never probed")
	}
	if rv.DStats.VictimHits == 0 {
		t.Error("victim buffer never hit on a conflict-heavy workload")
	}
	// The buffer can only reduce off-chip traffic.
	if rv.DStats.SublinesFilled > rp.DStats.SublinesFilled {
		t.Errorf("victim buffer increased fills: %d vs %d",
			rv.DStats.SublinesFilled, rp.DStats.SublinesFilled)
	}
}
