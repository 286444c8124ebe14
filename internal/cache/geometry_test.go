package cache

import (
	"math/rand"
	"testing"
)

func TestGeometryValidation(t *testing.T) {
	if err := FourBank().Validate(); err != nil {
		t.Fatalf("paper geometry invalid: %v", err)
	}
	bad := []Geometry{
		{BankBytes: 3000, NumBanks: 4, MaxLineBytes: 64},
		{BankBytes: 2048, NumBanks: 3, MaxLineBytes: 64},
		{BankBytes: 2048, NumBanks: 4, MaxLineBytes: 48},
		{BankBytes: 8, NumBanks: 4, MaxLineBytes: 64},
		{BankBytes: 2048, NumBanks: 256, MaxLineBytes: 64},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", g)
		}
	}
}

func TestGeometryValueLists(t *testing.T) {
	g := Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	wantSizes := []int{4096, 8192, 16384, 32768}
	if got := g.SizeValues(); len(got) != 4 || got[0] != wantSizes[0] || got[3] != wantSizes[3] {
		t.Errorf("SizeValues = %v", got)
	}
	if got := g.AssocValues(); len(got) != 4 || got[3] != 8 {
		t.Errorf("AssocValues = %v", got)
	}
	if got := g.LineValues(); len(got) != 4 || got[0] != 16 || got[3] != 128 {
		t.Errorf("LineValues = %v", got)
	}
}

func TestGeometryConfigsLargerSpace(t *testing.T) {
	g := Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	// size/assoc combos: 1+2+3+4 banks-as-log = for active=1:1, 2:2,
	// 4:3, 8:4 assocs = 10 combos; x4 lines = 40; prediction doubles the
	// set-associative 6 combos x4 = +24 -> 64.
	if got := len(g.Configs()); got != 64 {
		t.Errorf("8-bank space has %d configs, want 64", got)
	}
	for _, c := range g.Configs() {
		if err := g.ValidateConfig(c); err != nil {
			t.Errorf("enumerated invalid config %v: %v", c, err)
		}
	}
}

func TestValidateConfigConstraints(t *testing.T) {
	g := FourBank()
	if err := g.ValidateConfig(Config{SizeBytes: 2048, Ways: 2, LineBytes: 16}); err == nil {
		t.Error("2 ways at one active bank accepted")
	}
	if err := g.ValidateConfig(Config{SizeBytes: 6144, Ways: 1, LineBytes: 16}); err == nil {
		t.Error("non-power-of-two bank count accepted")
	}
	if err := g.ValidateConfig(Config{SizeBytes: 8192, Ways: 4, LineBytes: 128}); err == nil {
		t.Error("line beyond geometry accepted")
	}
}

// Reconfiguration semantics carry over: growing associativity preserves
// hits on a larger geometry too.
func TestScalableAssocGrowthPreservesHits(t *testing.T) {
	g := Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	c := mustGeometry(t, g, Config{SizeBytes: 32768, Ways: 1, LineBytes: 16})
	rng := rand.New(rand.NewSource(33))
	addrs := make([]uint32, 800)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1 << 18))
		c.Access(addrs[i], rng.Intn(4) == 0)
	}
	var present []uint32
	for _, a := range addrs {
		if c.Contains(a) {
			present = append(present, a)
		}
	}
	for _, ways := range []int{2, 4, 8} {
		if err := c.SetConfig(Config{SizeBytes: 32768, Ways: ways, LineBytes: 16}); err != nil {
			t.Fatal(err)
		}
		for _, a := range present {
			if !c.Contains(a) {
				t.Fatalf("block %#x lost growing to %d ways", a, ways)
			}
		}
	}
	if c.Stats().SettleWritebacks != 0 {
		t.Error("associativity growth forced writebacks")
	}
}

func TestScalableShrinkSemantics(t *testing.T) {
	g := Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	c := mustGeometry(t, g, Config{SizeBytes: 32768, Ways: 1, LineBytes: 16})
	if err := c.SetConfig(g.MinConfig()); err == nil {
		t.Fatal("shrink allowed without AllowShrink")
	}
	// Dirty one block per bank (bank select bits are 12+log2(8/..)).
	c.AllowShrink = true
	for b := uint32(0); b < 8; b++ {
		c.Access(b<<12, true)
	}
	if err := c.SetConfig(g.MinConfig()); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SettleWritebacks; got != 7 {
		t.Errorf("settle writebacks = %d, want 7 (one per deactivated bank)", got)
	}
}
