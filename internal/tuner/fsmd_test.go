package tuner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// roundTrip packs and unpacks cfg, failing t on either error.
func roundTrip(t *testing.T, cfg cache.Config) cache.Config {
	t.Helper()
	v, err := PackConfig(cfg)
	if err != nil {
		t.Fatalf("PackConfig(%v): %v", cfg, err)
	}
	got, err := UnpackConfig(v)
	if err != nil {
		t.Fatalf("UnpackConfig(%07b) of %v: %v", v, cfg, err)
	}
	return got
}

func TestPackUnpackConfig(t *testing.T) {
	codes := map[uint8]cache.Config{}
	for _, cfg := range cache.AllConfigs() {
		if got := roundTrip(t, cfg); got != cfg {
			t.Errorf("pack/unpack %v -> %v", cfg, got)
		}
		v, _ := PackConfig(cfg)
		if prev, dup := codes[v]; dup {
			t.Errorf("%v and %v share code %07b", prev, cfg, v)
		}
		codes[v] = cfg
	}
	// The field layout: size largest first, line and ways smallest first.
	if v, _ := PackConfig(cache.Config{SizeBytes: 2048, Ways: 1, LineBytes: 64}); v != 0b1010000 {
		t.Errorf("2K_1W_64B packs to %07b, want 1010000", v)
	}
	if v, _ := PackConfig(cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 16, WayPredict: true}); v != 0b0000101 {
		t.Errorf("8K_4W_16B_P packs to %07b, want 0000101", v)
	}
	// A configuration outside the four-bank space has no code, so it
	// cannot alias one that has.
	for _, cfg := range []cache.Config{
		{SizeBytes: 16384, Ways: 1, LineBytes: 128},
		{SizeBytes: 2048, Ways: 2, LineBytes: 16},
		{SizeBytes: 4096, Ways: 1, LineBytes: 8},
		{SizeBytes: 8192, Ways: 1, LineBytes: 16, WayPredict: true},
	} {
		if v, err := PackConfig(cfg); err == nil {
			t.Errorf("PackConfig(%v) = %07b, want an error", cfg, v)
		}
	}
	// Every code the 27 configurations leave unused is rejected: a field
	// of 3 names no value, the rest name unrealisable configurations.
	for v := 0; v < 256; v++ {
		cfg, err := UnpackConfig(uint8(v))
		if want, ok := codes[uint8(v)]; ok {
			if err != nil || cfg != want {
				t.Errorf("UnpackConfig(%07b) = %v, %v; want %v", v, cfg, err, want)
			}
		} else if err == nil {
			t.Errorf("UnpackConfig(%07b) = %v, want an error", v, cfg)
		}
	}
}

// TestHitEnergyRegisterOrder pins the datapath's constant registers to the
// paper's layout: hit energies for 8K 4/2/1-way, 4K 2/1-way, 2K 1-way;
// miss energies for 16/32/64 B lines; static energies for 8/4/2 KB.
func TestHitEnergyRegisterOrder(t *testing.T) {
	p := energy.DefaultParams()
	f := NewFSMD(p)
	fixed := func(j float64) uint16 { return uint16(j/FixedPointUnit + 0.5) }
	hit := p.HitTable()
	for i, sw := range [][2]int{{8192, 4}, {8192, 2}, {8192, 1}, {4096, 2}, {4096, 1}, {2048, 1}} {
		sa := energy.SizeAssoc{SizeBytes: sw[0], Ways: sw[1]}
		if got, want := f.Regs.HitEnergy[i], fixed(hit[sa]); got != want {
			t.Errorf("HitEnergy[%d] = %d, want %d (%v)", i, got, want, sa)
		}
	}
	miss, static := p.MissTable(), p.StaticTable()
	for i, line := range []int{16, 32, 64} {
		if got, want := f.Regs.MissEnergy[i], fixed(miss[line]); got != want {
			t.Errorf("MissEnergy[%d] = %d, want %d (%d B)", i, got, want, line)
		}
	}
	for i, size := range []int{8192, 4096, 2048} {
		if got, want := f.Regs.StaticEnergy[i], fixed(static[size]); got != want {
			t.Errorf("StaticEnergy[%d] = %d, want %d (%d B)", i, got, want, size)
		}
	}
}

func TestQuickPackConfigRoundTrip(t *testing.T) {
	all := cache.AllConfigs()
	f := func(i uint) bool {
		cfg := all[i%uint(len(all))]
		return roundTrip(t, cfg) == cfg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

func TestFixedPointMatchesFloatModel(t *testing.T) {
	// The datapath's 16-bit fixed-point arithmetic must agree with the
	// floating-point Equation 1 closely enough to make the same
	// decisions. Writeback energy is outside the hardware's three-term
	// model, so compare against the float model minus that term.
	p := energy.DefaultParams()
	f := NewFSMD(p)
	prof, _ := workload.ByName("jpeg")
	accs := prof.Generate(80_000)
	for _, cfg := range cache.AllConfigs() {
		c := cache.MustConfigurable(cfg)
		for _, a := range accs {
			c.Access(a.Addr, a.IsWrite())
		}
		st := c.Stats()
		m := MeasurementFromStats(cfg, st, p)
		e, err := f.EvaluateConfig(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		got := ToJoules(e)
		b := p.Evaluate(cfg, st)
		want := b.Total() - b.Writeback
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("%v: fixed point %.3g J vs float %.3g J (>8%% apart)", cfg, got, want)
		}
	}
	if f.Saturated {
		t.Error("accumulator saturated on a normal window")
	}
}

func TestFSMDCycleCost(t *testing.T) {
	p := energy.DefaultParams()
	f := NewFSMD(p)
	if got := f.EvaluationCycles(); got != 64 {
		t.Errorf("EvaluationCycles = %d, want the paper's 64", got)
	}
	for _, cfg := range []cache.Config{cache.MinConfig(), cache.BaseConfig()} {
		if _, err := f.EvaluateConfig(cfg, Measurement{Hits: 100, Misses: 5, Cycles: 220}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.EvaluateConfig(cache.Config{SizeBytes: 16384, Ways: 1, LineBytes: 16}, Measurement{}); err == nil {
		t.Error("EvaluateConfig priced a configuration outside the four-bank space")
	}
	if f.TotalCycles != 128 || f.NumSearch != 2 {
		t.Errorf("after two evals: cycles=%d searches=%d", f.TotalCycles, f.NumSearch)
	}
}

func TestFSMDRunMatchesSoftwareHeuristic(t *testing.T) {
	// The hardware walk (fixed-point energies) must select the same
	// configuration as the floating-point software search.
	p := energy.DefaultParams()
	for _, name := range []string{"crc", "jpeg", "g721", "blit"} {
		prof, _ := workload.ByName(name)
		accs := prof.Generate(100_000)
		inst, data := trace.Split(accs)
		for _, stream := range [][]trace.Access{inst, data} {
			ev := NewTraceEvaluator(stream, p)
			soft := SearchPaper(ev)
			f := NewFSMD(p)
			hard, err := f.Run(func(cfg cache.Config) Measurement {
				return MeasurementFromStats(cfg, ev.Evaluate(cfg).Stats, p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if hard != soft.Best.Cfg {
				t.Errorf("%s: hardware chose %v, software chose %v", name, hard, soft.Best.Cfg)
			}
			if reg, err := UnpackConfig(f.Regs.Config); err != nil || reg != hard {
				t.Errorf("%s: configure register holds %v (%v), want %v", name, reg, err, hard)
			}
		}
	}
}

func TestFSMDSaturation(t *testing.T) {
	p := energy.DefaultParams()
	f := NewFSMD(p)
	if _, err := f.EvaluateConfig(cache.BaseConfig(), Measurement{Hits: 1 << 31, Misses: 1 << 31, Cycles: 1 << 31}); err != nil {
		t.Fatal(err)
	}
	if !f.Saturated {
		t.Error("oversized window did not saturate")
	}
	if f.Regs.Energy != 1<<32-1 {
		t.Errorf("saturated accumulator = %d, want max", f.Regs.Energy)
	}
}

func TestHardwareModelMatchesPaperScale(t *testing.T) {
	h := NewHardwareModel()
	p := energy.DefaultParams()
	tech := p.Tech

	if g := h.Gates(); g < 3000 || g > 5500 {
		t.Errorf("gate count = %d, want ~4000 (paper §4)", g)
	}
	if a := h.AreaMM2(tech); a < 0.02 || a > 0.06 {
		t.Errorf("area = %.4f mm2, want ~0.039 (paper §4)", a)
	}
	if o := h.AreaOverheadVsMIPS(tech); o < 0.01 || o > 0.06 {
		t.Errorf("area overhead = %.1f%%, want ~3%%", o*100)
	}
	if o := h.PowerOverheadVsMIPS(); math.Abs(o-0.0054) > 0.004 {
		t.Errorf("power overhead = %.2f%%, want ~0.5%%", o*100)
	}
	// A ~5.4-configuration search at 64 cycles and 2.69 mW lands in the
	// paper's nanojoule range.
	e := h.SearchEnergy(p, 64, 6)
	if e < 1e-9 || e > 2e-8 {
		t.Errorf("search energy = %g J, want a few nJ", e)
	}
}

func TestFlushAblationDwarfsTunerEnergy(t *testing.T) {
	// §4: largest-first size search costs orders of magnitude more in
	// forced writebacks than the whole heuristic search costs in tuner
	// energy.
	p := energy.DefaultParams()
	prof, _ := workload.ByName("blit") // write-heavy data stream
	data := trace.OnlyData(prof.Generate(150_000))
	res := FlushAblation(data, p, 0)
	if res.SettleWritebacks == 0 {
		t.Fatal("largest-first search forced no writebacks on a write-heavy stream")
	}
	if res.Ratio < 100 {
		t.Errorf("writeback/tuner energy ratio = %.0f, want >> 100 (paper: ~48,000x)", res.Ratio)
	}
	t.Logf("settle writebacks=%d energy=%.3g J tuner=%.3g J ratio=%.0f",
		res.SettleWritebacks, res.WritebackEnergy, res.TunerEnergy, res.Ratio)
}

func TestMultilevelSearchSumsNotProducts(t *testing.T) {
	// §3.4's example: three line-size parameters with four values each;
	// brute force 64, heuristic at most 12.
	params := []LevelParam{
		{Name: "L1I line", Values: []int{8, 16, 32, 64}},
		{Name: "L1D line", Values: []int{8, 16, 32, 64}},
		{Name: "L2 line", Values: []int{64, 128, 256, 512}},
	}
	// Separable convex energy: each parameter has an independent best.
	eval := func(v []int) float64 {
		f := func(x, best int) float64 { d := float64(x - best); return d * d }
		return f(v[0], 32) + f(v[1], 16) + f(v[2], 128)
	}
	res := MultilevelSearch(eval, params)
	if res.BruteForceSize != 64 {
		t.Errorf("brute force size = %d, want 64", res.BruteForceSize)
	}
	if res.Examined > 12 {
		t.Errorf("heuristic examined %d, want <= 12 (sums not products)", res.Examined)
	}
	want := []int{32, 16, 128}
	for i := range want {
		if res.Best[i] != want[i] {
			t.Errorf("best[%d] = %d, want %d", i, res.Best[i], want[i])
		}
	}
	bf := MultilevelBruteForce(eval, params)
	if bf.Examined != 64 || bf.BestEnergy != res.BestEnergy {
		t.Errorf("brute force disagrees: %+v vs %+v", bf, res)
	}
}
