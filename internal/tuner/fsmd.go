package tuner

import (
	"fmt"
	"math"
	"slices"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// This file models the §3.5 tuner hardware: a datapath of eighteen
// registers (fifteen 16-bit energy constants, two 32-bit accumulators and a
// 7-bit configuration register) driven by three nested state machines — the
// parameter state machine (PSM, Figure 8: states P1..P4 for size, line,
// associativity, prediction), the value state machine (VSM, V1..V3 for up
// to three values per parameter) and the calculation state machine (CSM,
// C1..C3: one pass per multiplication through the single shared slow
// multiplier). Energy arithmetic is 16x32-bit fixed point.

// Fixed-point scale: energies are stored in units of 2^-8 nJ (~3.9 pJ).
// A 16-bit register then spans 0..256 nJ, covering the largest per-miss
// energy, while the 32-bit accumulator covers a full measurement window.
const (
	FixedPointUnit = 1.0 / 256.0 * 1e-9 // joules per LSB
	regBits        = 16
	accBits        = 32
)

// Measurement is the runtime information the datapath's three collection
// registers gather during one window: total hits, misses and cycles.
type Measurement struct {
	Hits, Misses, Cycles uint32
}

// MeasureFunc produces the window measurement for a configuration (in
// hardware, by running the cache for a window; in simulation, from a trace).
type MeasureFunc func(cfg cache.Config) Measurement

// Registers is the datapath register file (Figure 7).
type Registers struct {
	// HitEnergy holds the six per-access hit energies: 8K 4/2/1-way,
	// 4K 2/1-way, 2K 1-way. The physical line is 16 B, so line size
	// does not enter.
	HitEnergy [6]uint16
	// MissEnergy holds the three per-miss energies for 16/32/64 B lines.
	MissEnergy [3]uint16
	// StaticEnergy holds the three per-cycle static energies for
	// 8/4/2 KB.
	StaticEnergy [3]uint16
	// Hits, Misses, Cycles collect runtime information.
	Hits, Misses, Cycles uint32
	// Energy holds the last computed energy; Lowest the best seen.
	Energy, Lowest uint32
	// Config is the 7-bit configuration register: 2 bits size, 2 bits
	// line, 2 bits associativity, 1 bit prediction.
	Config uint8
}

// The configure register's three 2-bit fields index FourBank()'s value
// lists — size largest first, line and associativity smallest first — and
// the same codes select the constant registers: StaticEnergy by size,
// MissEnergy by line, HitEnergy by size and associativity.

// fieldValues returns the value lists the register fields index.
func fieldValues() (sizes, lines, ways []int) {
	g := cache.FourBank()
	sizes = g.SizeValues()
	slices.Reverse(sizes)
	return sizes, g.LineValues(), g.AssocValues()
}

// hitRegister is the hit-energy register for a size code and an
// associativity code. The registers list the realisable pairs largest size
// first, then most ways first (8K 4/2/1-way, 4K 2/1-way, 2K 1-way): of n
// sizes, size code s realises the n-s smallest associativities.
func hitRegister(size, ways int) int {
	n := len(cache.FourBank().SizeValues())
	r := 0
	for s := 0; s < size; s++ {
		r += n - s // the pairs of each larger size
	}
	return r + (n - size - 1) - ways // most ways first within the size
}

// PackConfig encodes a configuration into the 7-bit configure register:
// 2 bits size, 2 bits line, 2 bits associativity, 1 bit prediction. A
// configuration outside the four-bank space has no encoding.
func PackConfig(cfg cache.Config) (uint8, error) {
	if err := cfg.Validate(); err != nil {
		return 0, fmt.Errorf("tuner: no configure-register code for %v: %w", cfg, err)
	}
	sizes, lines, ways := fieldValues()
	v := uint8(slices.Index(sizes, cfg.SizeBytes))<<5 |
		uint8(slices.Index(lines, cfg.LineBytes))<<3 |
		uint8(slices.Index(ways, cfg.Ways))<<1
	if cfg.WayPredict {
		v |= 1
	}
	return v, nil
}

// UnpackConfig decodes the configure register. A code whose fields name no
// value, or name a configuration the banks cannot realise, is rejected.
func UnpackConfig(v uint8) (cache.Config, error) {
	sizes, lines, ways := fieldValues()
	s, l, w := int(v>>5&3), int(v>>3&3), int(v>>1&3)
	if v>>7 != 0 || s >= len(sizes) || l >= len(lines) || w >= len(ways) {
		return cache.Config{}, fmt.Errorf("tuner: configure register %07b names no configuration", v)
	}
	cfg := cache.Config{SizeBytes: sizes[s], LineBytes: lines[l], Ways: ways[w], WayPredict: v&1 != 0}
	if err := cfg.Validate(); err != nil {
		return cache.Config{}, fmt.Errorf("tuner: configure register %07b: %w", v, err)
	}
	return cfg, nil
}

// FSMD is the cycle-level tuner hardware model.
type FSMD struct {
	// Regs is the datapath state.
	Regs Registers
	// MultiplierCycles is the latency of the slow sequential multiplier;
	// the paper's gate-level simulation reports 64 cycles per whole
	// configuration evaluation: 3 multiplies x 16 + FSM/add/compare
	// overhead (see EvaluationCycles).
	MultiplierCycles int
	// TotalCycles accumulates over a search.
	TotalCycles uint64
	// NumSearch counts configurations evaluated (Equation 2's input).
	NumSearch int
	// Saturated reports whether any accumulation clipped at 32 bits.
	Saturated bool
}

// NewFSMD loads the fifteen constant registers from the energy model.
func NewFSMD(p *energy.Params) *FSMD {
	f := &FSMD{MultiplierCycles: 16}
	toFixed := func(j float64) uint16 {
		v := j / FixedPointUnit
		if v >= (1<<regBits)-1 {
			return (1 << regBits) - 1
		}
		if v < 0 {
			return 0
		}
		return uint16(v + 0.5)
	}
	sizes, lines, ways := fieldValues()
	hit, miss, static := p.HitTable(), p.MissTable(), p.StaticTable()
	for s, size := range sizes {
		for w := 0; w < len(sizes)-s; w++ {
			f.Regs.HitEnergy[hitRegister(s, w)] = toFixed(hit[energy.SizeAssoc{SizeBytes: size, Ways: ways[w]}])
		}
		f.Regs.StaticEnergy[s] = toFixed(static[size])
	}
	for l, line := range lines {
		f.Regs.MissEnergy[l] = toFixed(miss[line])
	}
	return f
}

// satMulAdd is one pass through the shared multiplier plus accumulate, with
// 32-bit saturation.
func (f *FSMD) satMulAdd(acc uint32, a uint32, b uint16) uint32 {
	prod := uint64(a) * uint64(b)
	sum := uint64(acc) + prod
	if sum >= 1<<accBits {
		f.Saturated = true
		return 1<<accBits - 1
	}
	return uint32(sum)
}

// MeasurementFromStats converts one window's cache counters into the three
// collection registers. With way prediction enabled, the hits register
// counts way reads (a correct prediction reads one way; a misprediction
// re-reads all ways) so that the existing one-way hit-energy register prices
// the window without extra datapath state — the small overcount of the
// shared output stage on mispredictions is the model's only approximation.
func MeasurementFromStats(cfg cache.Config, st cache.Stats, p *energy.Params) Measurement {
	clip := func(v uint64) uint32 {
		if v > 1<<32-1 {
			return 1<<32 - 1
		}
		return uint32(v)
	}
	hits := st.Accesses
	if cfg.WayPredict && cfg.Ways > 1 {
		hits = st.PredHits + st.PredMisses*uint64(1+cfg.Ways)
		// The measurement logic also folds the predictor-table access
		// overhead into the way-read count, scaled by the one-way
		// access energy, so the three-multiplier datapath needs no
		// extra register.
		one := p.OneWayEnergy(cfg.SizeBytes)
		hits += uint64(float64(st.Accesses) * p.PredictorOverheadEnergy / one)
	}
	return Measurement{
		Hits:   clip(hits),
		Misses: clip(st.Misses),
		Cycles: clip(p.Cycles(cfg, st)),
	}
}

// EvaluateConfig runs the CSM for one configuration's measurement: three
// sequential multiplications (hits x E_hit, misses x E_miss,
// cycles x E_static) accumulated into the energy register, then the
// comparison against the lowest register. Returns the fixed-point energy,
// or PackConfig's error for a configuration outside the four-bank space.
func (f *FSMD) EvaluateConfig(cfg cache.Config, m Measurement) (uint32, error) {
	v, err := PackConfig(cfg)
	if err != nil {
		return 0, err
	}
	size, line, ways := int(v>>5&3), int(v>>3&3), int(v>>1&3)
	if cfg.WayPredict {
		// Way reads are priced at the one-way access energy of the
		// current size (see MeasurementFromStats).
		ways = 0
	}
	f.Regs.Hits, f.Regs.Misses, f.Regs.Cycles = m.Hits, m.Misses, m.Cycles
	var acc uint32
	// CSM C1..C3: one multiplier pass each.
	acc = f.satMulAdd(acc, m.Hits, f.Regs.HitEnergy[hitRegister(size, ways)])
	acc = f.satMulAdd(acc, m.Misses, f.Regs.MissEnergy[line])
	acc = f.satMulAdd(acc, m.Cycles, f.Regs.StaticEnergy[size])
	f.Regs.Energy = acc
	f.TotalCycles += uint64(f.EvaluationCycles())
	f.NumSearch++
	return acc, nil
}

// EvaluationCycles is the cycle cost of evaluating one configuration: the
// paper's gate-level simulation reports 64 (three 16-cycle multiplier
// passes plus FSM, accumulate and compare overhead).
func (f *FSMD) EvaluationCycles() int {
	return 3*f.MultiplierCycles + 16
}

// ToJoules converts a fixed-point energy register value.
func ToJoules(v uint32) float64 { return float64(v) * FixedPointUnit }

// Run walks the PSM/VSM over the heuristic's search using measure for each
// window and returns the selected configuration. It mirrors Search with the
// PaperOrder but performs all energy arithmetic in the datapath's fixed
// point, so its decisions are exactly what the hardware would take. The
// search walks only four-bank configurations, which all have a code.
func (f *FSMD) Run(measure MeasureFunc) (cache.Config, error) {
	var err error
	eval := EvaluatorFunc(func(cfg cache.Config) EvalResult {
		e, eerr := f.EvaluateConfig(cfg, measure(cfg))
		if eerr != nil {
			err = eerr
			return EvalResult{Cfg: cfg, Energy: math.Inf(1)}
		}
		if f.Regs.Lowest == 0 || e < f.Regs.Lowest {
			f.Regs.Lowest = e
		}
		return EvalResult{Cfg: cfg, Energy: ToJoules(e)}
	})
	res := Search(eval, PaperOrder)
	if err != nil {
		return cache.Config{}, err
	}
	// The PSM's final state drives the configure register with the best
	// configuration seen.
	f.Regs.Config, err = PackConfig(res.Best.Cfg)
	return res.Best.Cfg, err
}

// String summarises datapath state.
func (f *FSMD) String() string {
	return fmt.Sprintf("fsmd: %d configs, %d cycles, lowest=%.2f nJ, config=%07b",
		f.NumSearch, f.TotalCycles, ToJoules(f.Regs.Lowest)*1e9, f.Regs.Config)
}
