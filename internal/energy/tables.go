package energy

import "selftune/internal/cache"

// SizeAssoc identifies one of the six size/associativity combinations whose
// hit energies the tuner datapath stores (paper §3.5: "Six additional
// registers store the cache hit energy per cache access").
type SizeAssoc struct {
	SizeBytes int
	Ways      int
}

// HitTable returns the six per-access hit energies the tuner registers hold,
// keyed by size/associativity. Line size does not appear because the
// physical line is 16 B.
func (p *Params) HitTable() map[SizeAssoc]float64 {
	out := make(map[SizeAssoc]float64, 6)
	for _, cfg := range cache.BaseConfigs() {
		out[SizeAssoc{cfg.SizeBytes, cfg.Ways}] = p.HitEnergy(cfg)
	}
	return out
}

// MissTable returns the three per-miss energies (one per line size) the
// tuner registers hold.
func (p *Params) MissTable() map[int]float64 {
	out := make(map[int]float64, 3)
	for _, line := range cache.FourBank().LineValues() {
		out[line] = p.MissEnergy(line)
	}
	return out
}

// StaticTable returns the three per-cycle static energies (one per cache
// size) the tuner registers hold.
func (p *Params) StaticTable() map[int]float64 {
	out := make(map[int]float64, 3)
	for _, size := range cache.FourBank().SizeValues() {
		out[size] = p.StaticEnergyPerCycle(size)
	}
	return out
}
