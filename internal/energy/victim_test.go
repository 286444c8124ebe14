package energy

import (
	"testing"

	"selftune/internal/cache"
)

// pingPong alternates between two conflicting regions with heavy reuse —
// the workload a victim buffer exists for.
func pingPong(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		base := uint32(0)
		if i%4 >= 2 {
			base = 0x2000
		}
		out[i] = base + uint32(i%256)
	}
	return out
}

func runTrace(c *cache.Configurable, addrs []uint32) cache.Stats {
	for _, a := range addrs {
		c.Access(a, false)
	}
	st := c.Stats()
	st.Writebacks += uint64(c.DirtyLines())
	return st
}

// TestVictimBufferApproximatesAssociativity reproduces the companion-paper
// result: a direct-mapped cache with a small victim buffer gets most of a
// set-associative configuration's conflict tolerance at far lower energy.
func TestVictimBufferApproximatesAssociativity(t *testing.T) {
	p := DefaultParams()
	trace := pingPong(60_000)

	dm := cache.MustConfigurable(cache.MinConfig())
	dmE := p.Total(cache.MinConfig(), runTrace(dm, trace))

	vb := cache.MustConfigurable(cache.MinConfig())
	vb.Victim = cache.NewVictimBuffer(8)
	vbE := p.Total(cache.MinConfig(), runTrace(vb, trace))

	assocCfg := cache.Config{SizeBytes: 8192, Ways: 2, LineBytes: 16}
	assoc := cache.MustConfigurable(assocCfg)
	assocE := p.Total(assocCfg, runTrace(assoc, trace))

	t.Logf("2K DM: %.1f uJ   2K DM + 8-entry victim: %.1f uJ   8K 2-way: %.1f uJ",
		dmE*1e6, vbE*1e6, assocE*1e6)
	if vbE >= dmE/2 {
		t.Errorf("victim buffer saved too little: %.3g vs %.3g J", vbE, dmE)
	}
	// The buffer should close most of the energy gap between the
	// direct-mapped and the conflict-free set-associative configuration.
	closed := (dmE - vbE) / (dmE - assocE)
	if closed < 0.7 {
		t.Errorf("victim buffer closed only %.0f%% of the DM-vs-associative gap", 100*closed)
	}

	// The same holds on a larger geometry priced on that geometry: eight
	// 4 KB banks, where the two regions conflict in the 4 KB direct-mapped
	// configuration.
	geo := cache.Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128}
	geoDM := func(victim *cache.VictimBuffer) float64 {
		c, err := cache.NewConfigurableGeometry(geo, geo.MinConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.Victim = victim
		return p.EvaluateOn(geo, geo.MinConfig(), runTrace(c, trace)).Total()
	}
	geoDME, geoVBE := geoDM(nil), geoDM(cache.NewVictimBuffer(8))
	t.Logf("8x4 KB geometry: 4K DM: %.1f uJ   4K DM + 8-entry victim: %.1f uJ", geoDME*1e6, geoVBE*1e6)
	if geoVBE >= geoDME/2 {
		t.Errorf("victim buffer on %+v saved too little: %.3g vs %.3g J", geo, geoVBE, geoDME)
	}
}
