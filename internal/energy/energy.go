// Package energy implements the paper's Equation 1 (total memory-access
// energy) and Equation 2 (cache-tuner energy), on top of the analytical
// cacti model:
//
//	E_total   = E_dynamic + E_static
//	E_dynamic = accesses·E_hit + misses·E_miss
//	E_miss    = E_offchip_access + E_uP_stall + E_cache_block_fill
//	E_static  = total_cycles · E_static_per_cycle
//	E_tuner   = P_tuner · time_total · num_searches   (Equation 2)
//
// The configurable cache exposes exactly the six hit energies, three miss
// energies and three static powers the tuner datapath stores in registers
// (paper §3.5); HitTable/MissTable/StaticTable expose those values.
//
// EvaluateOn prices a configuration of any cache.Geometry — the §3.4
// larger-cache study — with the bank size and tag width that geometry
// fixes; Evaluate and the per-term methods are that pricing on the paper's
// cache.FourBank().
package energy

import (
	"fmt"
	"math/bits"

	"selftune/internal/cache"
	"selftune/internal/cacti"
)

// tagBits is the stored tag width of a configurable cache on geo: the
// paper's design always checks the full tag (address bits above the 16 B
// offset and the bank row), which is what makes associativity changes
// flush-free. It is 21 on FourBank.
func tagBits(geo cache.Geometry) int {
	return 32 - 4 - bits.TrailingZeros(uint(geo.BankBytes/cache.PhysLineBytes))
}

// Params holds the calibrated energy model. Construct with DefaultParams and
// override fields for sensitivity studies.
type Params struct {
	// Tech is the process model used for cache array energies.
	Tech cacti.Tech

	// OffChipRequestEnergy is charged once per off-chip access (row
	// activation, control), and OffChipPerByteEnergy per byte moved, from
	// a Samsung-class SDRAM datasheet scale.
	OffChipRequestEnergy float64
	OffChipPerByteEnergy float64

	// MemLatencyCycles is the fixed off-chip access latency and
	// BytesPerBurstCycle the burst transfer rate, giving the miss stall
	// time the stall-energy term uses.
	MemLatencyCycles   int
	BytesPerBurstCycle int

	// StallPowerPerCycle is the energy the stalled microprocessor burns
	// per cycle (a 0.18 µm MIPS-class core).
	StallPowerPerCycle float64

	// PredictorOverheadEnergy is the per-access cost of reading and
	// updating the MRU way-prediction table when prediction is enabled.
	PredictorOverheadEnergy float64

	// VictimProbeEnergy is the cost of one fully-associative victim
	// buffer lookup (a handful of 16 B entries), and VictimHitLatency the
	// cycles a victim swap takes instead of an off-chip fetch.
	VictimProbeEnergy float64
	VictimHitLatency  int

	// BankRouteEnergy is the extra per-access energy of each active bank
	// beyond the first: the bank-select decode and the longer address/
	// data routing across the four-bank layout. It is what makes way
	// shutdown save dynamic energy even in direct-mapped configurations
	// (M*CORE's motivation) and gives the size sweep a real cost side.
	BankRouteEnergy float64

	// ClockHz is the system clock; 200 MHz per the paper's tuner numbers.
	ClockHz float64
}

// DefaultParams returns the calibrated 0.18 µm model. The cacti scale is set
// so one 2 KB bank read costs BankReadTarget, matching the scale of the
// authors' layout-extracted values.
func DefaultParams() *Params {
	p := &Params{
		Tech:                    cacti.Default180nm(),
		OffChipRequestEnergy:    4e-9,
		OffChipPerByteEnergy:    0.5e-9,
		MemLatencyCycles:        20,
		BytesPerBurstCycle:      4,
		StallPowerPerCycle:      0.10e-9,
		PredictorOverheadEnergy: 0.02e-9,
		VictimProbeEnergy:       0.03e-9,
		VictimHitLatency:        2,
		BankRouteEnergy:         0.018e-9,
		ClockHz:                 200e6,
	}
	p.Calibrate(0.20e-9)
	return p
}

// Calibrate rescales the cacti model so a single-bank (2 KB, one way, 16 B)
// read costs target joules.
func (p *Params) Calibrate(target float64) {
	geo := cache.FourBank()
	p.Tech.CalibrationScale = 1.0
	raw := p.Tech.ReadEnergy(geo.BankBytes, 1, cache.PhysLineBytes, tagBits(geo))
	p.Tech.CalibrationScale = target / raw
}

// probeEnergy is the energy of reading ways of geo's bank arrays
// concurrently at the given total active size, plus the bank-select and
// routing overhead of each active bank beyond the first. Line size does not
// matter because the physical access is always 16 B (paper §3.5).
func (p *Params) probeEnergy(geo cache.Geometry, ways, sizeBytes int) float64 {
	return p.Tech.ReadEnergy(geo.BankBytes, ways, cache.PhysLineBytes, tagBits(geo)) +
		float64(sizeBytes/geo.BankBytes-1)*p.BankRouteEnergy
}

// HitEnergy returns E_hit for a full (non-predicted) access under cfg: all
// cfg.Ways banks' arrays are read concurrently, plus the routing overhead
// of the active banks.
func (p *Params) HitEnergy(cfg cache.Config) float64 {
	return p.probeEnergy(cache.FourBank(), cfg.Ways, cfg.SizeBytes)
}

// OneWayEnergy returns the energy of a single-way probe at the given total
// size (a correct way prediction reads one way only, but still pays the
// active-bank routing).
func (p *Params) OneWayEnergy(sizeBytes int) float64 {
	return p.probeEnergy(cache.FourBank(), 1, sizeBytes)
}

// MissLatency returns the stall cycles of one miss fetching a lineBytes line.
func (p *Params) MissLatency(lineBytes int) int {
	return p.MemLatencyCycles + lineBytes/p.BytesPerBurstCycle
}

// OffChipEnergy returns the off-chip energy to move n bytes.
func (p *Params) OffChipEnergy(n int) float64 {
	return p.OffChipRequestEnergy + float64(n)*p.OffChipPerByteEnergy
}

// sublineFillEnergy is the energy to write one 16 B physical line into one
// of geo's banks.
func (p *Params) sublineFillEnergy(geo cache.Geometry) float64 {
	return p.Tech.WriteEnergy(geo.BankBytes, cache.PhysLineBytes, tagBits(geo))
}

// FillEnergy returns the energy to write a fetched line into the cache.
func (p *Params) FillEnergy(lineBytes int) float64 {
	return float64(lineBytes/cache.PhysLineBytes) * p.sublineFillEnergy(cache.FourBank())
}

// MissEnergy returns E_miss = E_offchip_access + E_uP_stall + E_fill for a
// lineBytes line (Equation 1).
func (p *Params) MissEnergy(lineBytes int) float64 {
	stall := float64(p.MissLatency(lineBytes)) * p.StallPowerPerCycle
	return p.OffChipEnergy(lineBytes) + stall + p.FillEnergy(lineBytes)
}

// writebackEnergy is the energy to write one dirty 16 B physical line of
// geo back to memory: one bank read plus the off-chip write.
func (p *Params) writebackEnergy(geo cache.Geometry) float64 {
	return p.probeEnergy(geo, 1, geo.BankBytes) + p.OffChipEnergy(cache.PhysLineBytes)
}

// WritebackEnergy returns the energy to write one dirty 16 B physical line
// back to memory (one bank read + off-chip write).
func (p *Params) WritebackEnergy() float64 { return p.writebackEnergy(cache.FourBank()) }

// staticPerCycle is the leakage energy per cycle of sizeBytes active on geo.
func (p *Params) staticPerCycle(geo cache.Geometry, sizeBytes int) float64 {
	return p.Tech.LeakagePower(sizeBytes, tagBits(geo)) / p.ClockHz
}

// StaticEnergyPerCycle returns leakage energy per cycle for an active size.
func (p *Params) StaticEnergyPerCycle(sizeBytes int) float64 {
	return p.staticPerCycle(cache.FourBank(), sizeBytes)
}

// Cycles estimates execution cycles attributable to this cache's accesses:
// one cycle per access, the miss latency per miss, one extra cycle per way
// misprediction, and the burst time of each writeback.
func (p *Params) Cycles(cfg cache.Config, st cache.Stats) uint64 {
	wbCycles := uint64(cache.PhysLineBytes / p.BytesPerBurstCycle)
	return st.Accesses +
		st.Misses*uint64(p.MissLatency(cfg.LineBytes)) +
		st.ExtraCycles +
		(st.Writebacks+st.SettleWritebacks)*wbCycles
}

// Breakdown is the Equation 1 decomposition of an interval's energy.
type Breakdown struct {
	// CacheDynamic is hit/probe energy of the cache arrays.
	CacheDynamic float64
	// Static is leakage over the interval's cycles.
	Static float64
	// OffChipAccess is off-chip read energy of misses.
	OffChipAccess float64
	// Stall is microprocessor stall energy during misses.
	Stall float64
	// Fill is the energy of writing fetched lines into the cache.
	Fill float64
	// Writeback is dirty-eviction energy (including settle writebacks
	// forced by shrinking reconfigurations).
	Writeback float64
	// Cycles is the interval length used for Static.
	Cycles uint64
}

// Total is the value the tuner minimises.
func (b Breakdown) Total() float64 {
	return b.CacheDynamic + b.Static + b.OffChipAccess + b.Stall + b.Fill + b.Writeback
}

// OnChip groups the cache's own energy (Figure 2's "Cache" series).
func (b Breakdown) OnChip() float64 { return b.CacheDynamic + b.Static + b.Fill }

// OffChip groups memory-system energy (Figure 2's "Off chip Memory" series).
func (b Breakdown) OffChip() float64 { return b.OffChipAccess + b.Stall + b.Writeback }

// String renders the breakdown in nanojoules.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fnJ (dyn=%.1f static=%.1f offchip=%.1f stall=%.1f fill=%.1f wb=%.1f)",
		b.Total()*1e9, b.CacheDynamic*1e9, b.Static*1e9, b.OffChipAccess*1e9, b.Stall*1e9, b.Fill*1e9, b.Writeback*1e9)
}

// Evaluate applies Equation 1 to an interval's counters under cfg on the
// paper's four-bank cache.
func (p *Params) Evaluate(cfg cache.Config, st cache.Stats) Breakdown {
	return p.EvaluateOn(cache.FourBank(), cfg, st)
}

// EvaluateOn applies Equation 1 to an interval's counters under cfg on geo:
// array energies, fills, writebacks and leakage use geo's bank size and tag
// width; off-chip, stall, predictor and victim-buffer terms do not depend
// on the geometry.
func (p *Params) EvaluateOn(geo cache.Geometry, cfg cache.Config, st cache.Stats) Breakdown {
	var b Breakdown
	full := p.probeEnergy(geo, cfg.Ways, cfg.SizeBytes)
	if cfg.WayPredict && cfg.Ways > 1 {
		// Correct predictions probe one way; mispredictions probe the
		// predicted way and then all ways' worth of arrays.
		one := p.probeEnergy(geo, 1, cfg.SizeBytes)
		b.CacheDynamic = float64(st.PredHits)*one +
			float64(st.PredMisses)*(one+full) +
			float64(st.Accesses)*p.PredictorOverheadEnergy
	} else {
		b.CacheDynamic = float64(st.Accesses) * full
	}
	b.OffChipAccess = float64(st.Misses) * p.OffChipEnergy(cfg.LineBytes)
	// Stall energy covers both miss latency and the one-cycle bubbles of
	// way mispredictions.
	b.Stall = (float64(st.Misses)*float64(p.MissLatency(cfg.LineBytes)) +
		float64(st.ExtraCycles)) * p.StallPowerPerCycle
	b.Fill = float64(st.SublinesFilled) * p.sublineFillEnergy(geo)
	if st.VictimProbes > 0 {
		// Victim-buffer accounting: every probe costs a small FA lookup;
		// every hit replaces an off-chip block fetch with an on-chip swap.
		b.CacheDynamic += float64(st.VictimProbes) * p.VictimProbeEnergy
		offSave := float64(st.VictimHits) * p.OffChipEnergy(cache.PhysLineBytes)
		if offSave > b.OffChipAccess {
			offSave = b.OffChipAccess
		}
		b.OffChipAccess -= offSave
		stallSave := float64(st.VictimHits) *
			float64(p.MissLatency(cache.PhysLineBytes)-p.VictimHitLatency) * p.StallPowerPerCycle
		if stallSave > b.Stall {
			stallSave = b.Stall
		}
		b.Stall -= stallSave
	}
	b.Writeback = float64(st.Writebacks+st.SettleWritebacks) * p.writebackEnergy(geo)
	b.Cycles = p.Cycles(cfg, st)
	b.Static = float64(b.Cycles) * p.staticPerCycle(geo, cfg.SizeBytes)
	return b
}

// Total is shorthand for Evaluate(...).Total().
func (p *Params) Total(cfg cache.Config, st cache.Stats) float64 {
	return p.Evaluate(cfg, st).Total()
}

// TunerEnergy implements Equation 2: the energy of the hardware tuner for a
// whole search, given its power, per-configuration evaluation time in
// cycles, and number of configurations examined.
func (p *Params) TunerEnergy(powerWatts float64, cyclesPerConfig int, numSearch int) float64 {
	t := float64(cyclesPerConfig) / p.ClockHz
	return powerWatts * t * float64(numSearch)
}
