// Package sim provides whole-system simulation drivers: the two-level cache
// hierarchy of the paper's §3.4 multilevel-tuning example, and trace-replay
// helpers shared by the cmd tools and benches.
package sim

import (
	"fmt"
	"sync"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// Hierarchy is a two-level cache system: split L1s backed by a unified L2.
// It reproduces the §3.4 example: 16 KB 8-way L1 instruction and data
// caches and a 256 KB 8-way unified L2, with tunable line sizes.
type Hierarchy struct {
	L1I, L1D, L2 *cache.Generic
}

// NewHierarchy builds the hierarchy; sizes/ways are fixed, line sizes vary.
func NewHierarchy(l1iLine, l1dLine, l2Line int) (*Hierarchy, error) {
	l1i, err := cache.NewGeneric(cache.GenericConfig{SizeBytes: 16 << 10, Ways: 8, LineBytes: l1iLine})
	if err != nil {
		return nil, fmt.Errorf("sim: L1I: %w", err)
	}
	l1d, err := cache.NewGeneric(cache.GenericConfig{SizeBytes: 16 << 10, Ways: 8, LineBytes: l1dLine})
	if err != nil {
		return nil, fmt.Errorf("sim: L1D: %w", err)
	}
	l2, err := cache.NewGeneric(cache.GenericConfig{SizeBytes: 256 << 10, Ways: 8, LineBytes: l2Line})
	if err != nil {
		return nil, fmt.Errorf("sim: L2: %w", err)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}, nil
}

// Access routes one reference through the hierarchy: an L1 miss (or
// writeback) accesses the unified L2.
func (h *Hierarchy) Access(a trace.Access) {
	l1 := h.L1D
	if a.Kind == trace.InstFetch {
		l1 = h.L1I
	}
	r := l1.Access(a.Addr, a.IsWrite())
	if !r.Hit {
		h.L2.Access(a.Addr, false)
	}
	for i := 0; i < r.Writebacks; i++ {
		h.L2.Access(a.Addr, true) // victim writeback allocates in L2
	}
}

// Run replays a stream.
func (h *Hierarchy) Run(accs []trace.Access) {
	for _, a := range accs {
		h.Access(a)
	}
}

// Energy totals the hierarchy's memory-access energy: L1 and L2 dynamic
// energy, off-chip energy and stall for L2 misses, and leakage.
func (h *Hierarchy) Energy(p *energy.Params) float64 {
	var total float64
	for _, l1 := range []*cache.Generic{h.L1I, h.L1D} {
		st := l1.Stats()
		cfg := l1.Config()
		total += float64(st.Accesses) * p.GenericHitEnergy(cfg)
		// An L1 miss costs an L2 access (charged below via L2 stats)
		// plus the L1 fill write.
		total += float64(st.Misses) * p.FillEnergy(cache.PhysLineBytes) * float64(cfg.LineBytes/cache.PhysLineBytes)
	}
	st2 := h.L2.Stats()
	cfg2 := h.L2.Config()
	total += float64(st2.Accesses) * p.GenericHitEnergy(cfg2)
	total += float64(st2.Misses) * (p.OffChipEnergy(cfg2.LineBytes) +
		float64(p.GenericMissLatency(cfg2))*p.StallPowerPerCycle)
	total += float64(st2.Writebacks) * p.OffChipEnergy(cfg2.LineBytes)
	return total
}

// LineParams returns the §3.4 tunable parameters: four candidate line sizes
// per level (L1s: 8–64 B; L2: 64–512 B).
func LineParams() []tuner.LevelParam {
	return []tuner.LevelParam{
		{Name: "L1I line", Values: []int{8, 16, 32, 64}},
		{Name: "L1D line", Values: []int{8, 16, 32, 64}},
		{Name: "L2 line", Values: []int{64, 128, 256, 512}},
	}
}

// HierarchyEvaluator returns the evaluation closure MultilevelSearch and
// MultilevelBruteForce consume: it replays accs through a fresh hierarchy
// with the given line sizes and returns total energy. Results are memoised
// behind a mutex, so the closure is safe to call from concurrent searches.
func HierarchyEvaluator(accs []trace.Access, p *energy.Params) func(values []int) float64 {
	var mu sync.Mutex
	memo := map[[3]int]float64{}
	return func(values []int) float64 {
		key := [3]int{values[0], values[1], values[2]}
		mu.Lock()
		e, ok := memo[key]
		mu.Unlock()
		if ok {
			return e
		}
		h, err := NewHierarchy(values[0], values[1], values[2])
		if err != nil {
			panic(err)
		}
		h.Run(accs)
		e = h.Energy(p)
		mu.Lock()
		memo[key] = e
		mu.Unlock()
		return e
	}
}
