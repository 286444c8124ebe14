package energy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"selftune/internal/cache"
)

func TestCalibration(t *testing.T) {
	p := DefaultParams()
	got := p.OneWayEnergy(2048)
	if got < 0.199e-9 || got > 0.201e-9 {
		t.Errorf("calibrated bank read = %g J, want 0.20 nJ", got)
	}
}

func TestHitTableShape(t *testing.T) {
	p := DefaultParams()
	tab := p.HitTable()
	if len(tab) != 6 {
		t.Fatalf("HitTable has %d entries, want the 6 the tuner registers hold", len(tab))
	}
	// More ways at a size must cost more; same assoc at bigger size must
	// not cost less (bigger decoders/tags).
	if tab[SizeAssoc{8192, 4}] <= tab[SizeAssoc{8192, 2}] ||
		tab[SizeAssoc{8192, 2}] <= tab[SizeAssoc{8192, 1}] {
		t.Errorf("hit energy not increasing in ways: %v", tab)
	}
	if tab[SizeAssoc{8192, 1}] < tab[SizeAssoc{2048, 1}] {
		t.Errorf("8 KB direct-mapped cheaper than 2 KB: %v", tab)
	}
	// Way concatenation means a direct-mapped 8 KB access reads one bank:
	// it should be close to the 2 KB access, not 4x it.
	if tab[SizeAssoc{8192, 1}] > 1.5*tab[SizeAssoc{2048, 1}] {
		t.Errorf("way concatenation not modelled: 8K 1W = %g vs 2K 1W = %g",
			tab[SizeAssoc{8192, 1}], tab[SizeAssoc{2048, 1}])
	}
}

func TestMissTableIncreasesWithLine(t *testing.T) {
	p := DefaultParams()
	tab := p.MissTable()
	if len(tab) != 3 {
		t.Fatalf("MissTable has %d entries, want 3", len(tab))
	}
	if !(tab[16] < tab[32] && tab[32] < tab[64]) {
		t.Errorf("miss energy not increasing with line size: %v", tab)
	}
	// A miss must dwarf a hit (the premise of cache tuning).
	if tab[16] < 10*p.HitEnergy(cache.BaseConfig()) {
		t.Errorf("miss energy %g not >> hit energy", tab[16])
	}
}

func TestStaticTableIncreasesWithSize(t *testing.T) {
	p := DefaultParams()
	tab := p.StaticTable()
	if len(tab) != 3 {
		t.Fatalf("StaticTable has %d entries, want 3", len(tab))
	}
	if !(tab[2048] < tab[4096] && tab[4096] < tab[8192]) {
		t.Errorf("static energy not increasing with size: %v", tab)
	}
}

func TestMissLatency(t *testing.T) {
	p := DefaultParams()
	if got := p.MissLatency(16); got != 24 {
		t.Errorf("MissLatency(16) = %d, want 24 (20 + 16/4)", got)
	}
	if got := p.MissLatency(64); got != 36 {
		t.Errorf("MissLatency(64) = %d, want 36", got)
	}
}

func TestEvaluateBreakdown(t *testing.T) {
	p := DefaultParams()
	cfg := cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 32}
	st := cache.Stats{Accesses: 1000, Hits: 950, Misses: 50, SublinesFilled: 100, Writebacks: 10}
	b := p.Evaluate(cfg, st)
	if b.Total() <= 0 {
		t.Fatal("non-positive total energy")
	}
	wantDyn := 1000 * p.HitEnergy(cfg)
	if !close(b.CacheDynamic, wantDyn) {
		t.Errorf("CacheDynamic = %g, want %g", b.CacheDynamic, wantDyn)
	}
	wantOff := 50 * p.OffChipEnergy(32)
	if !close(b.OffChipAccess, wantOff) {
		t.Errorf("OffChipAccess = %g, want %g", b.OffChipAccess, wantOff)
	}
	if b.Cycles != 1000+50*28+10*4 {
		t.Errorf("Cycles = %d, want %d", b.Cycles, 1000+50*28+10*4)
	}
	sum := b.CacheDynamic + b.Static + b.OffChipAccess + b.Stall + b.Fill + b.Writeback
	if !close(sum, b.Total()) {
		t.Errorf("Total() = %g, parts sum to %g", b.Total(), sum)
	}
	if !close(b.OnChip()+b.OffChip(), b.Total()) {
		t.Errorf("OnChip+OffChip = %g, Total = %g", b.OnChip()+b.OffChip(), b.Total())
	}
}

func TestWayPredictionSavesEnergyWhenAccurate(t *testing.T) {
	p := DefaultParams()
	base := cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 16}
	pred := base
	pred.WayPredict = true
	// 95% accurate prediction on a hit-dominated interval.
	st := cache.Stats{Accesses: 1000, Hits: 990, Misses: 10, SublinesFilled: 10,
		PredHits: 950, PredMisses: 50, ExtraCycles: 50}
	stBase := st
	stBase.PredHits, stBase.PredMisses, stBase.ExtraCycles = 0, 0, 0
	if p.Total(pred, st) >= p.Total(base, stBase) {
		t.Errorf("accurate way prediction did not save energy: pred=%g base=%g",
			p.Total(pred, st), p.Total(base, stBase))
	}
	// 30% accuracy should lose (extra probes + stall).
	bad := st
	bad.PredHits, bad.PredMisses, bad.ExtraCycles = 300, 700, 700
	if p.Total(pred, bad) <= p.Total(base, stBase) {
		t.Errorf("inaccurate way prediction still saved energy")
	}
}

// Pricing runs once per measurement window of every session, so it must
// not allocate, on the paper's geometry or a larger one.
func TestEvaluateAllocatesNothing(t *testing.T) {
	p := DefaultParams()
	st := cache.Stats{Accesses: 1000, Hits: 950, Misses: 50, SublinesFilled: 100, Writebacks: 10,
		PredHits: 900, PredMisses: 100, ExtraCycles: 100, VictimProbes: 50, VictimHits: 20}
	eight := cache.Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	cfg8 := cache.Config{SizeBytes: 32768, Ways: 4, LineBytes: 64, WayPredict: true}
	var sink float64
	for name, price := range map[string]func(){
		"FourBank": func() { sink += p.Evaluate(cache.BaseConfig(), st).Total() },
		"8x4KB":    func() { sink += p.EvaluateOn(eight, cfg8, st).Total() },
	} {
		if n := testing.AllocsPerRun(100, price); n != 0 {
			t.Errorf("%s: %v allocations per pricing, want 0", name, n)
		}
	}
	if sink <= 0 {
		t.Error("non-positive energies")
	}
}

func TestTunerEnergyEquation2(t *testing.T) {
	p := DefaultParams()
	// Paper §4: 2.69 mW, 200 MHz, 64 cycles/config, ~5.4 configs
	// searched -> single-config energy = P * 64/200e6.
	e1 := p.TunerEnergy(2.69e-3, 64, 1)
	want := 2.69e-3 * 64 / 200e6
	if !close(e1, want) {
		t.Errorf("TunerEnergy one config = %g, want %g", e1, want)
	}
	if !close(p.TunerEnergy(2.69e-3, 64, 6), 6*want) {
		t.Error("TunerEnergy not linear in NumSearch")
	}
	// The whole-search energy must be in the paper's nJ ballpark.
	if total := p.TunerEnergy(2.69e-3, 64, 6); total < 1e-10 || total > 1e-8 {
		t.Errorf("tuner search energy %g J, expected a few nJ", total)
	}
}

func TestGenericEvaluateMatchesScale(t *testing.T) {
	p := DefaultParams()
	g := cache.GenericConfig{SizeBytes: 8192, Ways: 1, LineBytes: 16}
	st := cache.Stats{Accesses: 1000, Hits: 990, Misses: 10, SublinesFilled: 10}
	got := p.GenericEvaluate(g, st).Total()
	cfg := cache.Config{SizeBytes: 8192, Ways: 1, LineBytes: 16}
	ref := p.Evaluate(cfg, st).Total()
	// Same size/assoc/line: the two models should agree within 2x (the
	// generic model reads line-width data and has no bank structure).
	if got > 2*ref || ref > 2*got {
		t.Errorf("generic %g and configurable %g energies diverge more than 2x", got, ref)
	}
}

func TestGenericEnergyGrowsWithSize(t *testing.T) {
	p := DefaultParams()
	st := cache.Stats{Accesses: 1000, Hits: 1000}
	prev := 0.0
	for size := 1024; size <= 1<<20; size *= 2 {
		g := cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32}
		e := p.GenericEvaluate(g, st).Total()
		if e <= prev {
			t.Errorf("hit-only energy not increasing at %d bytes: %g <= %g", size, e, prev)
		}
		prev = e
	}
}

// Property: energy is monotone in each counter.
func TestQuickEvaluateMonotoneInCounters(t *testing.T) {
	p := DefaultParams()
	cfg := cache.BaseConfig()
	f := func(acc, miss uint16) bool {
		a, m := uint64(acc)+1, uint64(miss)
		if m > a {
			m = a
		}
		st := cache.Stats{Accesses: a, Hits: a - m, Misses: m, SublinesFilled: 2 * m}
		more := st
		more.Misses++
		more.SublinesFilled += 2
		more.Accesses++
		return p.Total(cfg, more) > p.Total(cfg, st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return d == 0
	}
	return d/m < 1e-9
}
