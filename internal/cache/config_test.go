package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllConfigsCount(t *testing.T) {
	// 6 size/assoc combos x 3 line sizes = 18; way prediction doubles the
	// 9 set-associative ones -> 27 (paper §1/§3.1).
	if got := len(AllConfigs()); got != 27 {
		t.Fatalf("AllConfigs() = %d configs, want 27", got)
	}
	if got := len(BaseConfigs()); got != 18 {
		t.Fatalf("BaseConfigs() = %d configs, want 18", got)
	}
}

func TestAllConfigsValid(t *testing.T) {
	seen := map[Config]bool{}
	for _, c := range AllConfigs() {
		if err := c.Validate(); err != nil {
			t.Errorf("AllConfigs produced invalid %v: %v", c, err)
		}
		if seen[c] {
			t.Errorf("AllConfigs produced duplicate %v", c)
		}
		seen[c] = true
	}
}

func TestValidateRejectsImpossible(t *testing.T) {
	bad := []Config{
		{SizeBytes: 2048, Ways: 4, LineBytes: 16}, // 4-way 2KB impossible (§3.2)
		{SizeBytes: 2048, Ways: 2, LineBytes: 16},
		{SizeBytes: 4096, Ways: 4, LineBytes: 16},
		{SizeBytes: 8192, Ways: 3, LineBytes: 16},
		{SizeBytes: 8192, Ways: 4, LineBytes: 8},
		{SizeBytes: 8192, Ways: 4, LineBytes: 128},
		{SizeBytes: 1024, Ways: 1, LineBytes: 16},
		{SizeBytes: 8192, Ways: 1, LineBytes: 16, WayPredict: true}, // pred needs assoc
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	// A 7x8x9x2 = 1008-point grid of sizes, ways, lines and prediction,
	// realisable or not: Validate accepts exactly the 27 AllConfigs.
	want := map[Config]bool{}
	for _, c := range AllConfigs() {
		want[c] = true
	}
	accepted := 0
	for _, size := range []int{0, 1024, 2048, 3072, 4096, 8192, 16384} {
		for _, ways := range []int{-1, 0, 1, 2, 3, 4, 8, 16} {
			for _, line := range []int{0, 8, 16, 24, 32, 48, 64, 128, 256} {
				for _, pred := range []bool{false, true} {
					c := Config{SizeBytes: size, Ways: ways, LineBytes: line, WayPredict: pred}
					err := c.Validate()
					if (err == nil) != want[c] {
						t.Errorf("Validate(%v) = %v, want accepted=%v", c, err, want[c])
					}
					if err == nil {
						accepted++
					}
				}
			}
		}
	}
	if accepted != 27 {
		t.Errorf("grid: %d accepted, want 27", accepted)
	}
}

func TestConfigStringParseRoundTrip(t *testing.T) {
	for _, c := range AllConfigs() {
		got, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, s := range []string{"", "8K", "2K_4W_16B", "8K_4W_16B_X", "bogus"} {
		if _, err := ParseConfig(s); err == nil {
			t.Errorf("ParseConfig(%q) = nil error, want error", s)
		}
	}
}

func TestConfigSets(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{8192, 4, 16, false}, 128},
		{Config{8192, 1, 64, false}, 128},
		{Config{8192, 2, 16, false}, 256},
		{Config{2048, 1, 16, false}, 128},
		{Config{4096, 2, 32, false}, 64},
	}
	for _, c := range cases {
		if got := c.cfg.Sets(); got != c.want {
			t.Errorf("%v.Sets() = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestGrows(t *testing.T) {
	min := MinConfig()
	for _, c := range AllConfigs() {
		if !min.Grows(c) {
			t.Errorf("MinConfig should grow into any config, failed for %v", c)
		}
	}
	big := Config{8192, 4, 16, false}
	small := Config{4096, 2, 16, false}
	if big.Grows(small) {
		t.Errorf("%v -> %v should not be a growth transition", big, small)
	}
}

func TestMinAndBaseConfigValid(t *testing.T) {
	if err := MinConfig().Validate(); err != nil {
		t.Errorf("MinConfig invalid: %v", err)
	}
	if err := BaseConfig().Validate(); err != nil {
		t.Errorf("BaseConfig invalid: %v", err)
	}
	if BaseConfig().Ways != 4 || BaseConfig().SizeBytes != 8192 {
		t.Errorf("BaseConfig = %v, want the 8 KB four-way base cache of Table 1", BaseConfig())
	}
}

// Property: the sweep orders used by the heuristic produce only growth
// transitions (so the heuristic never needs a flush, §3.3/§3.4).
func TestSweepOrdersAreGrowthOnly(t *testing.T) {
	prev := MinConfig()
	for _, size := range FourBank().SizeValues() {
		c := Config{SizeBytes: size, Ways: 1, LineBytes: 16}
		if !prev.Grows(c) {
			t.Errorf("size sweep %v -> %v is not growth-only", prev, c)
		}
		prev = c
	}
	prev = Config{SizeBytes: 8192, Ways: 1, LineBytes: 16}
	for _, w := range FourBank().AssocValues() {
		c := Config{SizeBytes: 8192, Ways: w, LineBytes: 16}
		if !prev.Grows(c) {
			t.Errorf("assoc sweep %v -> %v is not growth-only", prev, c)
		}
		prev = c
	}
}

// Property-based: String/Parse round-trips for random valid configs.
func TestQuickConfigRoundTrip(t *testing.T) {
	all := AllConfigs()
	f := func(i uint) bool {
		c := all[i%uint(len(all))]
		got, err := ParseConfig(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
