package fastsim

import (
	"math/bits"

	"selftune/internal/cache"
	"selftune/internal/trace"
)

// The fused kernel evaluates all 27 four-bank configurations in ONE pass
// over the trace. Four observations make that much cheaper than 27 passes:
//
//  1. Content dedup. Way prediction never changes cache contents — it only
//     adds predictor counters — so the 27 configurations collapse to 18
//     content-distinct "lanes" (6 structures × 3 line sizes) plus 9
//     predictor-only lanes that piggyback on their structure's probe result.
//
//  2. Run folding. Consecutive accesses to the same 16 B block are hits in
//     EVERY configuration (the head access leaves the block resident
//     everywhere) and first-probe hits in every predicted configuration
//     (the head access trains each predictor to the block's bank). A run of
//     k same-block accesses therefore costs one full cross-lane head
//     evaluation plus three shared counter bumps — zero per-lane work for
//     the k-1 repeats. The accessed frame's MRU timestamp is written once
//     with the run's final clock value, which is legal because no
//     replacement decision can read it mid-run (repeats are hits, and lanes
//     never observe each other).
//
//  3. Complement counting. Every access is a hit or a miss, so only misses
//     are counted and Hits = Accesses − Misses at readout; likewise every
//     access of a predicted configuration either predicts correctly or
//     pays the penalty, so PredHits = Accesses − PredMisses. The hit path —
//     the overwhelmingly common one — touches no counter at all.
//
//  4. Frame-major state layout. All 18 lanes share the bank/row address
//     decode, so frame state is laid out lane-minor — index
//     (bank<<7 | row)*18 + lane — and a head access's tag probes across
//     every lane of one bank land in two adjacent cache lines instead of 18
//     scattered ones. The head evaluation is a single unrolled pass per
//     line size with the direct-mapped, two-way and four-way probes and
//     the predictor updates all inline.
//
// Every per-access decision on the head path — candidate-bank probe order,
// first-invalid-wins victim choice, MRU timestamps, predictor updates — is
// the same transcription of cache.Configurable that Kernel uses; the fused
// tier of the differential oracle (oracle_test.go) and FuzzFusedVsReference
// hold the fused kernel to bit-identical stats, energies, drain counts and
// tuner trajectories against both the reference simulators and Kernel.
const (
	// fusedSlots rounds 512 frames × 18 lanes up to a power of two so frame
	// indices can be masked instead of bounds-checked.
	fusedSlots = 1 << 14
	fusedMask  = fusedSlots - 1
	// invalidBlock marks an empty frame: real blocks are addr>>4 < 1<<28,
	// so all-ones never matches and a frame's validity folds into the tag
	// compare.
	invalidBlock = ^uint32(0)

	numStructs   = 6  // (size, ways) structures: contents differ
	numLanes     = 18 // structures × 3 line sizes: content lanes
	numPredLanes = 9  // predicted variants of the ways>1 structures

	// The nine set-associative content lanes (ways > 1) keep LRU timestamps
	// in their own dense array — direct-mapped lanes have no replacement
	// choice, so giving them timestamp slots would only dilute the cache.
	// assocLane(li) maps a content lane to its timestamp lane.
	numAssocLanes = 9
	luSlots       = 1 << 13 // 512 frames × 9 assoc lanes, rounded up
	luMask        = luSlots - 1
	luBank        = cache.BankRows * numAssocLanes // timestamp stride per bank
)

// assocLane maps a set-associative content lane (6–8, 12–17) to its dense
// timestamp lane (0–8).
func assocLane(li int) int {
	if li < 9 {
		return li - 6
	}
	return li - 9
}

// fusedGeom is one structure's precomputed probe geometry, shared by its
// three line-size lanes and consumed by the generic miss path.
type fusedGeom struct {
	// cand lists the candidate banks per value of the bank-select address
	// bits (addr>>11)&3, in the reference's probe order.
	cand [4][cache.NumBanks]uint8
	// ways is how many candidates are live.
	ways int
}

// fusedStructs maps (SizeBytes, Ways) to a structure index; line size picks
// the lane within the structure (lane = struct*3 + log2(LineBytes/16)).
var fusedStructs = []cache.Config{
	{SizeBytes: 2048, Ways: 1},
	{SizeBytes: 4096, Ways: 1},
	{SizeBytes: 4096, Ways: 2},
	{SizeBytes: 8192, Ways: 1},
	{SizeBytes: 8192, Ways: 2},
	{SizeBytes: 8192, Ways: 4},
}

// fusedPredStructs lists the structures with predicted variants (ways > 1)
// in predictor-lane order.
var fusedPredStructs = [3]int{2, 4, 5}

// FusedKernel replays one trace through all 27 four-bank configurations at
// once. Like Kernel it replays from cold, does not support reconfiguration
// or a victim buffer, and its inner loop is allocation-free (pinned by test
// and benchmark). The zero value is not usable; construct with NewFused.
type FusedKernel struct {
	// Frame state in the frame-major layout: index
	// (bank<<rowShift | row)*numLanes + lane, masked into power-of-two
	// arrays. Validity is the invalidBlock sentinel.
	blocks [fusedSlots]uint32
	dirty  [fusedSlots]bool
	// lastUse holds the set-associative lanes' MRU stamps in the denser
	// (bank<<rowShift | row)*numAssocLanes + assocLane(lane) layout — all
	// nine stamps of one frame share a cache line. 32-bit stamps suffice:
	// the clock counts accesses of one in-memory trace, far below 2^32,
	// and a valid frame's stamp is always ≥ 1, preserving the
	// first-invalid-wins victim scan's victimUse==0 marker.
	lastUse [luSlots]uint32
	// pred is one MRU way predictor per predictor lane, indexed by logical
	// set (8K two-way consumes bit 11, hence 2*BankRows entries).
	pred [numPredLanes][2 * cache.BankRows]uint8

	geo [numStructs]fusedGeom

	// clock is the shared access clock: the reference advances its clock
	// once per access regardless of configuration, so one counter serves
	// every lane's LRU timestamps.
	clock uint64

	// Shared stream totals, identical across lanes.
	accesses uint64
	writes   uint64

	// Per-lane counters for the quantities that differ by configuration.
	// Hits and predicted hits are NOT counted: every access resolves one
	// way or the other, so StatsOf reconstructs them as accesses − misses
	// and accesses − predMisses.
	misses     [numLanes]uint64
	writebacks [numLanes]uint64
	fills      [numLanes]uint64
	predMisses [numPredLanes]uint64

	// pfSink publishes the prefetch reads in ReplayColumns so they are
	// not dead code; the value itself is meaningless.
	pfSink uint32

	// scratch is the reusable columnar buffer behind ReplayBatch.
	scratch trace.Columns
}

// NewFused returns a cold fused kernel covering all 27 configurations.
func NewFused() *FusedKernel {
	k := &FusedKernel{}
	for st, c := range fusedStructs {
		g := &k.geo[st]
		g.ways = c.Ways
		g.cand, _ = bankTable(c)
	}
	for i := range k.blocks {
		k.blocks[i] = invalidBlock
	}
	for pi := range k.pred {
		for s := range k.pred[pi] {
			k.pred[pi][s] = noPrediction
		}
	}
	return k
}

// Configs lists the configurations the kernel evaluates: the full 27-point
// space, in cache.AllConfigs order.
func (k *FusedKernel) Configs() []cache.Config { return cache.AllConfigs() }

// laneOf resolves a configuration to its content lane and predictor lane
// (-1 when prediction is off). ok is false for configurations outside the
// four-bank space.
func (k *FusedKernel) laneOf(cfg cache.Config) (li, pi int, ok bool) {
	st := -1
	for i, c := range fusedStructs {
		if c.SizeBytes == cfg.SizeBytes && c.Ways == cfg.Ways {
			st = i
			break
		}
	}
	if st < 0 || cfg.Validate() != nil {
		return 0, 0, false
	}
	l := bits.TrailingZeros(uint(cfg.SublinesPerLine()))
	pi = -1
	if cfg.WayPredict { // valid, so one of the ways > 1 structures
		for p, s := range fusedPredStructs {
			if s == st {
				pi = p*3 + l
			}
		}
	}
	return st*3 + l, pi, true
}

// ReplayColumns replays a columnar block of accesses through every lane —
// the hot loop of the fused sweep. Addr and Write must be parallel slices
// (trace.NewColumns guarantees this). Allocation-free.
//
// The head evaluation below is one unrolled pass per line size l, covering
// all six structures' lanes and the three predictor lanes at that l inline.
// The lane numbering is lane = struct*3 + l with structures ordered 2K1W,
// 4K1W, 4K2W, 8K1W, 8K2W, 8K4W; candidate-bank order matches the
// reference: 2K probes bank 0, 4K1W bank sel&1, 8K1W bank sel&3, 4K2W
// banks 0,1, 8K2W banks sel&1 then 2|(sel&1), 8K4W banks 0,1,2,3. Hits
// bump no counters (complement counting); only set-associative hit frames
// take an MRU stamp.
func (k *FusedKernel) ReplayColumns(cols trace.Columns) {
	addrs := cols.Addr
	wr := cols.Write
	n := len(addrs)
	if n == 0 {
		return
	}
	_ = wr[n-1]
	var pfSink uint32

	i := 0
	for i < n {
		addr := addrs[i]
		block := addr >> 4
		runWrites := uint64(0)
		if wr[i] {
			runWrites = 1
		}
		// Scan the run: the maximal span of consecutive same-block
		// accesses. Only the head needs per-lane evaluation.
		j := i + 1
		for j < n && addrs[j]>>4 == block {
			if wr[j] {
				runWrites++
			}
			j++
		}
		run := uint64(j - i)
		i = j

		// Touch the next head's tag frames now so their cache lines load
		// in parallel with this head's evaluation (the loads fold into
		// pfSink, which is published once after the loop, so the compiler
		// keeps them). Each frame's 18 lane tags span two 64 B lines.
		if i < n {
			nr := (addrs[i] >> 4) & (cache.BankRows - 1)
			nf := nr * numLanes
			nl := nr * numAssocLanes
			// A second, deeper horizon: the access ~8 stream positions out
			// approximates the head after next. Its exact frame lines are
			// unknowable without scanning, but any future address's frames
			// are useful to warm.
			d := i + 16
			if d >= n {
				d = n - 1
			}
			dr := (addrs[d] >> 4) & (cache.BankRows - 1)
			df := dr * numLanes
			pfSink ^= k.blocks[df&fusedMask] ^
				k.blocks[(df+16)&fusedMask] ^
				k.blocks[(df+(1<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(df+(1<<rowShift)*numLanes+16)&fusedMask] ^
				k.blocks[(df+(2<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(df+(2<<rowShift)*numLanes+16)&fusedMask] ^
				k.blocks[(df+(3<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(df+(3<<rowShift)*numLanes+16)&fusedMask]
			pfSink ^= k.blocks[nf&fusedMask] ^
				k.blocks[(nf+16)&fusedMask] ^
				k.blocks[(nf+(1<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(nf+(1<<rowShift)*numLanes+16)&fusedMask] ^
				k.blocks[(nf+(2<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(nf+(2<<rowShift)*numLanes+16)&fusedMask] ^
				k.blocks[(nf+(3<<rowShift)*numLanes)&fusedMask] ^
				k.blocks[(nf+(3<<rowShift)*numLanes+16)&fusedMask] ^
				k.lastUse[nl&luMask] ^
				k.lastUse[(nl+luBank)&luMask] ^
				k.lastUse[(nl+2*luBank)&luMask] ^
				k.lastUse[(nl+3*luBank)&luMask]
		}

		k.accesses += run
		k.writes += runWrites
		c1 := k.clock + 1 // the head access's clock tick
		end := k.clock + run
		k.clock = end
		// dw is the run's dirtying effect: the reference ORs each access's
		// write flag into the resident frame's dirty bit, and no eviction
		// can read the bit mid-run, so only "any write" is observable.
		dw := runWrites > 0
		// Final MRU timestamp of the accessed frame. On a hit the head
		// writes the run's last tick directly (each repeat would lift it
		// there anyway). On a miss the head writes the MRU value c1+1;
		// repeats (if any) lift it to the same final tick.
		luMiss := end
		if run == 1 {
			luMiss = c1 + 1
		}

		sel := (addr >> 11) & 3
		r := block & (cache.BankRows - 1)
		// Frame bases per bank in the frame-major layout, plus the
		// sel-dependent home frames of the direct-mapped 4K/8K and the
		// two-way 8K structures.
		fb0 := r * numLanes
		fb1 := fb0 + (1<<rowShift)*numLanes
		fb2 := fb0 + (2<<rowShift)*numLanes
		fb3 := fb0 + (3<<rowShift)*numLanes
		b4 := sel & 1
		b8 := sel & 3
		f4 := fb0 + b4*((1<<rowShift)*numLanes)
		f8 := fb0 + b8*((1<<rowShift)*numLanes)
		f4hi := f4 + (2<<rowShift)*numLanes // bank 2|(sel&1)
		set4 := r | b4<<rowShift            // 8K two-way predictor set
		// Timestamp bases mirror the frame bases in the dense layout.
		lb0 := r * numAssocLanes
		lb1 := lb0 + luBank
		lb2 := lb0 + 2*luBank
		lb3 := lb0 + 3*luBank
		lf4 := lb0 + b4*luBank
		lf4hi := lf4 + 2*luBank

		for l := uint32(0); l < 3; l++ {
			// 2K direct-mapped (lane l, bank 0).
			idx := (fb0 + l) & fusedMask
			if k.blocks[idx] == block {
				if dw {
					k.dirty[idx] = true
				}
			} else {
				k.misses[l]++
				k.missDM(int(l), 0, block, 1<<l, dw)
			}

			// 4K direct-mapped (lane 3+l, bank sel&1).
			idx = (f4 + 3 + l) & fusedMask
			if k.blocks[idx] == block {
				if dw {
					k.dirty[idx] = true
				}
			} else {
				k.misses[3+l]++
				k.missDM(int(3+l), b4, block, 1<<l, dw)
			}

			// 8K direct-mapped (lane 9+l, bank sel&3).
			idx = (f8 + 9 + l) & fusedMask
			if k.blocks[idx] == block {
				if dw {
					k.dirty[idx] = true
				}
			} else {
				k.misses[9+l]++
				k.missDM(int(9+l), b8, block, 1<<l, dw)
			}

			// Set-associative probes below load every way's tag up front
			// and select: a block lives in at most one way (single-copy
			// invariant), so the selects are unordered conditional moves
			// and the loads are independent — no data-dependent branch
			// chain. Only hit-or-miss remains a branch.

			// 4K two-way (lane 6+l, banks 0 then 1).
			li := 6 + l
			i0 := (fb0 + li) & fusedMask
			i1 := (fb1 + li) & fusedMask
			m1 := k.blocks[i1] == block
			hit2 := m1 || k.blocks[i0] == block
			idx2, lu2, rb2 := i0, lb0+l, uint8(0)
			if m1 {
				idx2, lu2, rb2 = i1, lb1+l, 1
			}
			if hit2 {
				k.lastUse[lu2&luMask] = uint32(end)
				if dw {
					k.dirty[idx2] = true
				}
			} else {
				k.misses[li]++
				rb2 = k.missLane(int(li), sel, block, 1<<l, dw, c1, luMiss)
			}

			// 8K two-way (lane 12+l, banks sel&1 then 2|(sel&1)).
			li = 12 + l
			i0 = (f4 + li) & fusedMask
			i1 = (f4hi + li) & fusedMask
			m1 = k.blocks[i1] == block
			hit4 := m1 || k.blocks[i0] == block
			idx4, lu4, rb4 := i0, lf4+3+l, uint8(b4)
			if m1 {
				idx4, lu4, rb4 = i1, lf4hi+3+l, uint8(2+b4)
			}
			if hit4 {
				k.lastUse[lu4&luMask] = uint32(end)
				if dw {
					k.dirty[idx4] = true
				}
			} else {
				k.misses[li]++
				rb4 = k.missLane(int(li), sel, block, 1<<l, dw, c1, luMiss)
			}

			// 8K four-way (lane 15+l, banks 0,1,2,3).
			li = 15 + l
			j0 := (fb0 + li) & fusedMask
			j1 := (fb1 + li) & fusedMask
			j2 := (fb2 + li) & fusedMask
			j3 := (fb3 + li) & fusedMask
			n1 := k.blocks[j1] == block
			n2 := k.blocks[j2] == block
			n3 := k.blocks[j3] == block
			hit5 := n1 || n2 || n3 || k.blocks[j0] == block
			idx5, lu5, rb5 := j0, lb0+6+l, uint8(0)
			if n1 {
				idx5, lu5, rb5 = j1, lb1+6+l, 1
			}
			if n2 {
				idx5, lu5, rb5 = j2, lb2+6+l, 2
			}
			if n3 {
				idx5, lu5, rb5 = j3, lb3+6+l, 3
			}
			if hit5 {
				k.lastUse[lu5&luMask] = uint32(end)
				if dw {
					k.dirty[idx5] = true
				}
			} else {
				k.misses[li]++
				rb5 = k.missLane(int(li), sel, block, 1<<l, dw, c1, luMiss)
			}

			// Predictor lanes: pure functions of the content lane's
			// outcome. A head miss is always a misprediction (the
			// reference compares hit bank -1 against the prediction); a
			// head hit is predicted iff the resident bank matches the
			// trained entry (untrained entries default to the structure's
			// first candidate: bank 0 for 4K2W/8K4W, sel&1 for 8K2W).
			// Either way the entry trains to the block's resident bank,
			// which is what folds the run's repeats into predicted hits.
			p := k.pred[l][r] // 4K two-way predictor
			if !hit2 || (p != rb2 && !(p == noPrediction && rb2 == 0)) {
				k.predMisses[l]++
			}
			k.pred[l][r] = rb2

			p = k.pred[3+l][set4] // 8K two-way predictor
			if !hit4 || (p != rb4 && !(p == noPrediction && rb4 == uint8(b4))) {
				k.predMisses[3+l]++
			}
			k.pred[3+l][set4] = rb4

			p = k.pred[6+l][r] // 8K four-way predictor
			if !hit5 || (p != rb5 && !(p == noPrediction && rb5 == 0)) {
				k.predMisses[6+l]++
			}
			k.pred[6+l][r] = rb5
		}
	}
	k.pfSink = pfSink
}

// missDM fills a direct-mapped lane's logical line, one 16 B subline at a
// time. With a single candidate frame per subline there is no victim choice
// and no LRU bookkeeping — the frame's timestamp is never read — so the
// fill is a tag overwrite plus writeback accounting. The accessed subline
// takes the run's dirtying effect; the resident bank is the home bank by
// construction.
func (k *FusedKernel) missDM(li int, bank, block, sublines uint32, dw bool) {
	lineBase := block &^ (sublines - 1)
	// The line's sublines occupy consecutive rows without wrapping (the
	// line base is line-aligned and the line size divides the row count),
	// so the frame index strides by numLanes.
	rr := lineBase & (cache.BankRows - 1)
	idx := ((bank<<rowShift|rr)*numLanes + uint32(li)) & fusedMask
	var filled uint64
	for sb := lineBase; sb < lineBase+sublines; sb++ {
		if k.blocks[idx] != sb {
			if k.blocks[idx] != invalidBlock && k.dirty[idx] {
				k.writebacks[li]++
			}
			k.blocks[idx] = sb
			k.dirty[idx] = false
			filled++
		}
		if sb == block && dw {
			k.dirty[idx] = true
		}
		idx = (idx + numLanes) & fusedMask
	}
	k.fills[li] += filled
}

// missLane fills a set-associative lane's logical line, one 16 B subline at
// a time, exactly as the reference cache does: existing copy wins, else the
// first invalid frame, else the LRU frame; the accessed subline becomes MRU
// and reports the bank that received it (the predictor's training target).
func (k *FusedKernel) missLane(li int, sel, block, sublines uint32, dw bool, c1, luAcc uint64) uint8 {
	g := &k.geo[li/3]
	banks := &g.cand[sel]
	ways := g.ways
	al := uint32(assocLane(li))
	lineBase := block &^ (sublines - 1)
	// Per-way frame and timestamp bases, hoisted: rows stride without
	// wrapping (see missDM), so the subline loop only adds the row stride.
	var wf, wl [cache.NumBanks]uint32
	rr := lineBase & (cache.BankRows - 1)
	for w := 0; w < ways; w++ {
		wf[w] = (uint32(banks[w])<<rowShift|rr)*numLanes + uint32(li)
		wl[w] = (uint32(banks[w])<<rowShift|rr)*numAssocLanes + al
	}
	var accBank uint8
	var filled uint64
	for sb := lineBase; sb < lineBase+sublines; sb++ {
		way := 0
		var victimUse uint32 = ^uint32(0)
		present := false
		for w := 0; w < ways; w++ {
			blk := k.blocks[wf[w]&fusedMask]
			if blk == sb {
				way, present = w, true
				break
			}
			if blk == invalidBlock {
				if victimUse != 0 { // first invalid wins
					way, victimUse = w, 0
				}
				continue
			}
			lu := k.lastUse[wl[w]&luMask]
			if lu < victimUse {
				way, victimUse = w, lu
			}
		}
		idx := wf[way] & fusedMask
		if !present {
			if k.blocks[idx] != invalidBlock && k.dirty[idx] {
				k.writebacks[li]++
			}
			k.blocks[idx] = sb
			k.dirty[idx] = false
			filled++
		}
		luIdx := wl[way] & luMask
		k.lastUse[luIdx] = uint32(c1)
		if sb == block {
			k.lastUse[luIdx] = uint32(luAcc)
			if dw {
				k.dirty[idx] = true
			}
			accBank = banks[way]
		}
		for w := 0; w < ways; w++ {
			wf[w] += numLanes
			wl[w] += numAssocLanes
		}
	}
	k.fills[li] += filled
	return accBank
}

// ReplayBatch replays a block of accesses, transposing into the kernel's
// reusable columnar scratch first — the engine.BatchReplayer shape for
// callers holding AoS streams. Allocation-free after the scratch has grown
// to the caller's block size.
func (k *FusedKernel) ReplayBatch(accs []trace.Access) {
	if cap(k.scratch.Addr) < len(accs) {
		k.scratch = trace.Columns{
			Addr:  make([]uint32, len(accs)),
			Write: make([]bool, len(accs)),
		}
	}
	k.scratch.Addr = k.scratch.Addr[:len(accs)]
	k.scratch.Write = k.scratch.Write[:len(accs)]
	for i := range accs {
		k.scratch.Addr[i] = accs[i].Addr
		k.scratch.Write[i] = accs[i].Kind == trace.DataWrite
	}
	k.ReplayColumns(k.scratch)
}

// StatsOf reconstructs one configuration's interval counters: the lane's
// own counts plus the shared stream totals, with hits and predicted hits
// recovered by complement (every access is a hit or a miss; every predicted
// access is a predicted hit or a misprediction). Panics on a configuration
// outside the 27-point space — callers gate on Configs.
func (k *FusedKernel) StatsOf(cfg cache.Config) cache.Stats {
	li, pi, ok := k.laneOf(cfg)
	if !ok {
		panic("fastsim: FusedKernel.StatsOf called with a configuration outside the four-bank space: " + cfg.String())
	}
	st := cache.Stats{
		Accesses:       k.accesses,
		Writes:         k.writes,
		Hits:           k.accesses - k.misses[li],
		Misses:         k.misses[li],
		Writebacks:     k.writebacks[li],
		SublinesFilled: k.fills[li],
	}
	if pi >= 0 {
		st.PredHits = k.accesses - k.predMisses[pi]
		st.PredMisses = k.predMisses[pi]
		st.ExtraCycles = st.PredMisses // each misprediction costs one cycle
	}
	return st
}

// DirtyLinesOf reports one configuration's valid dirty physical lines — the
// end-of-interval drain count. Lanes never share frames, so this is a scan
// of the lane's active banks' frames.
func (k *FusedKernel) DirtyLinesOf(cfg cache.Config) int {
	li, _, ok := k.laneOf(cfg)
	if !ok {
		panic("fastsim: FusedKernel.DirtyLinesOf called with a configuration outside the four-bank space: " + cfg.String())
	}
	n := 0
	for f := 0; f < cfg.ActiveBanks()*cache.BankRows; f++ {
		idx := (uint32(f)*numLanes + uint32(li)) & fusedMask
		if k.blocks[idx] != invalidBlock && k.dirty[idx] {
			n++
		}
	}
	return n
}
