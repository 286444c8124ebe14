// Package workload models the reference streams of the paper's benchmark
// suite. The paper runs Powerstone and MediaBench binaries under
// SimpleScalar; we do not have those binaries or inputs, so each benchmark
// is substituted by a parameterised loop-nest trace generator whose code
// footprint, working-set sizes, spatial locality (run lengths), write
// fraction and deliberate conflict placement reproduce the locality
// structure that drives the paper's per-benchmark results (see DESIGN.md,
// substitution 1). The mini-VM kernels in internal/programs provide fully
// real streams for the small Powerstone kernels as a cross-check.
package workload

import (
	"math/rand"

	"selftune/internal/trace"
)

// CodeRegion is a weighted instruction-fetch region: a loop body, function
// or phase of code.
type CodeRegion struct {
	// Base is the region's start address. Placement matters: regions
	// 0x2000 apart conflict in every direct-mapped configuration of the
	// 8 KB four-bank cache.
	Base uint32
	// Size is the region footprint in bytes.
	Size int
	// RunBytes is the average straight-line run before a taken branch
	// jumps elsewhere in the region; it controls how much of a long
	// cache line is useful (spatial locality).
	RunBytes int
	// Weight is the relative probability of executing in this region.
	Weight int
	// Burst is how many consecutive steps stay in the region once it is
	// chosen; long bursts give an MRU way predictor high accuracy.
	Burst int
}

// ArrayRef is a weighted data reference stream over one array.
type ArrayRef struct {
	// Base and Size delimit the array.
	Base uint32
	Size int
	// Stride is the byte distance between consecutive references.
	Stride int
	// RunLen is how many strided references occur before the cursor
	// jumps; with Random set, each run starts at a random offset.
	RunLen int
	// Random makes run starts uniformly random within the array;
	// otherwise the cursor sweeps the array cyclically.
	Random bool
	// WritePct is the percentage of references that are stores.
	WritePct int
	// Weight is the relative frequency of this stream.
	Weight int
}

// Profile generates the reference stream of one benchmark.
type Profile struct {
	// Name matches the paper's Table 1 benchmark name.
	Name string
	// Description summarises the modelled application behaviour.
	Description string
	// Seed makes the stream deterministic.
	Seed int64
	// InstPerStep and DataPerStep set the I:D mix per loop iteration;
	// their sum, the accesses per step, must be positive.
	InstPerStep, DataPerStep int
	// Code and Data are the weighted streams.
	Code []CodeRegion
	Data []ArrayRef
	// InitData, when non-empty, replaces Data for the first InitAccesses
	// accesses: the program's one-time initialisation/input phase. Its
	// cold misses are size-independent (the init set is far larger than
	// any cache) and carry the benchmark's spatial-locality grain, which
	// is what lets a profile pin the line-size choice without a steady
	// pollution stream distorting the size choice.
	InitData     []ArrayRef
	InitAccesses int
	// Paper records what the paper's Table 1 reports for this benchmark.
	Paper PaperRow
}

// PaperRow carries the paper's Table 1 entries for comparison in
// EXPERIMENTS.md and the bench harness.
type PaperRow struct {
	// ICfg and DCfg are the configurations the heuristic selected.
	ICfg, DCfg string
	// INum and DNum are the configurations examined.
	INum, DNum int
	// IEnergyPct and DEnergyPct are the paper's energy saving splits.
	IEnergyPct, DEnergyPct int
	// OptimalDCfg is set for the two benchmarks (pjpeg, mpeg2) where the
	// heuristic's data-cache choice was suboptimal.
	OptimalDCfg string
}

type regionState struct {
	cursor int // offset within region
}

type arrayState struct {
	cursor int // offset within array
	run    int // refs left in current run
}

// curArray tracks the sticky data stream: a run completes before the
// generator switches arrays, so RunLen controls the alternation grain
// between conflicting arrays (which is what determines whether higher
// associativity pays off).

// generator is the deterministic interpreter producing the stream.
type generator struct {
	p       *Profile
	rng     *rand.Rand
	regions []regionState
	arrays  []arrayState // states for Data
	initArr []arrayState // states for InitData
	region  int          // current code region
	burst   int          // steps left in current region
	curArr  int          // current data array (sticky until its run ends)
	emitted int          // total accesses emitted (drives the init phase)
}

// data returns the active data spec and state for the current phase.
func (g *generator) data() ([]ArrayRef, []arrayState) {
	if g.emitted < g.p.InitAccesses && len(g.p.InitData) > 0 {
		return g.p.InitData, g.initArr
	}
	return g.p.Data, g.arrays
}

// newGenerator starts the profile's stream from its seed.
func (p *Profile) newGenerator() *generator {
	return &generator{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		regions: make([]regionState, len(p.Code)),
		arrays:  make([]arrayState, len(p.Data)),
		initArr: make([]arrayState, len(p.InitData)),
		region:  -1,
		curArr:  -1,
	}
}

// Generate produces the first n accesses of the profile's stream. It
// appends whole steps to one slice sized for n plus one step's overhang
// and cuts the overhang off.
func (p *Profile) Generate(n int) []trace.Access {
	if n <= 0 {
		return nil
	}
	step := p.InstPerStep + p.DataPerStep
	if step <= 0 {
		panic("workload: profile " + p.Name + " emits no accesses per step")
	}
	g := p.newGenerator()
	out := make([]trace.Access, 0, n+step)
	for len(out) < n {
		// The phase a step draws from is fixed by the accesses before
		// it.
		g.emitted = len(out)
		out = g.step(out)
	}
	return out[:n:n]
}

// step emits one loop iteration: InstPerStep fetches from the current code
// region with DataPerStep data references interleaved evenly.
func (g *generator) step(out []trace.Access) []trace.Access {
	p := g.p
	g.pickRegion()

	// Data reference schedule: spread evenly across the instruction
	// fetches of the step.
	interval := 1 << 30
	if p.DataPerStep > 0 {
		interval = p.InstPerStep / p.DataPerStep
		if interval < 1 {
			interval = 1
		}
	}
	emitted := 0
	for i := 0; i < p.InstPerStep; i++ {
		out = append(out, g.fetch())
		if p.DataPerStep > 0 && i%interval == interval-1 && emitted < p.DataPerStep {
			out = append(out, g.dataRef())
			emitted++
		}
	}
	for ; emitted < p.DataPerStep; emitted++ {
		out = append(out, g.dataRef())
	}
	return out
}

func (g *generator) pickRegion() {
	if g.burst > 0 {
		g.burst--
		return
	}
	total := 0
	for _, r := range g.p.Code {
		total += r.Weight
	}
	pick := g.rng.Intn(total)
	for i, r := range g.p.Code {
		pick -= r.Weight
		if pick < 0 {
			g.region = i
			g.burst = r.Burst
			if g.burst < 1 {
				g.burst = 1
			}
			g.burst--
			return
		}
	}
	g.region = len(g.p.Code) - 1
}

func (g *generator) fetch() trace.Access {
	r := &g.p.Code[g.region]
	st := &g.regions[g.region]
	addr := r.Base + uint32(st.cursor)
	st.cursor += 4
	if st.cursor >= r.Size {
		st.cursor = 0
	} else if r.RunBytes > 0 && st.cursor%r.RunBytes == 0 {
		// Taken branch: jump to a pseudorandom basic block. Targets are
		// aligned to the run length (basic blocks are laid out whole),
		// which is what gives the fetch stream its spatial-locality
		// grain.
		blocks := r.Size / r.RunBytes
		if blocks < 1 {
			blocks = 1
		}
		st.cursor = g.rng.Intn(blocks) * r.RunBytes
	}
	return trace.Access{Addr: addr, Kind: trace.InstFetch}
}

func (g *generator) dataRef() trace.Access {
	specs, states := g.data()
	idx := g.curArr
	if idx < 0 || idx >= len(specs) || states[idx].run <= 0 {
		// Current run finished: weighted pick of the next stream.
		total := 0
		for _, a := range specs {
			total += a.Weight
		}
		pick := g.rng.Intn(total)
		idx = len(specs) - 1
		for i, a := range specs {
			pick -= a.Weight
			if pick < 0 {
				idx = i
				break
			}
		}
		g.curArr = idx
		a := &specs[idx]
		st := &states[idx]
		st.run = a.RunLen
		if st.run < 1 {
			st.run = 1
		}
		if a.Random {
			// Runs are records: each starts at a boundary aligned to
			// its own extent (RunLen x Stride), like random record or
			// block reads. The extent is the stream's spatial-locality
			// grain and hence what line size pays off.
			extent := st.run * a.Stride
			blocks := a.Size / extent
			if blocks < 1 {
				blocks = 1
			}
			st.cursor = g.rng.Intn(blocks) * extent
		}
	}
	a := &specs[idx]
	st := &states[idx]
	addr := a.Base + uint32(st.cursor)
	st.cursor += a.Stride
	if st.cursor >= a.Size {
		st.cursor = 0
	}
	st.run--
	kind := trace.DataRead
	if a.WritePct > 0 && g.rng.Intn(100) < a.WritePct {
		kind = trace.DataWrite
	}
	return trace.Access{Addr: addr, Kind: kind}
}
