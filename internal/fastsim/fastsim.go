// Package fastsim provides allocation-free replay kernels for the cache
// simulators: a four-bank configurable-cache kernel covering the paper's 27
// configurations, a fused kernel evaluating all 27 in one pass, and a
// generic set-associative kernel covering the Figure 2 sweep geometries.
// The kernels are drop-in engine.Simulator implementations that
// additionally expose a batched access loop (ReplayBatch), which the replay
// engine uses to eliminate per-access interface dispatch. The four-bank
// Kernel is also the live cache every tuning session serves through: one
// kernel kind, reconfigured in place (SetConfig) and checkpointed
// (Image, Restore) with the reference cache's semantics and bytes.
//
// The kernels are bit-identical to the reference simulators by construction
// and by proof: every per-access decision — candidate-bank order, the
// first-invalid-wins victim choice, MRU timestamps, predictor updates — is a
// direct transcription of cache.Configurable and cache.Generic with the
// per-access dispatch (the bank-select switch, method calls, AccessResult
// materialisation) hoisted into tables precomputed at construction. The
// differential oracle (oracle_test.go) and the FuzzFastSimVsReference fuzz
// target hold the kernels to identical cache.Stats, energies and tuner
// trajectories across all 27 configurations, and the live-kernel oracle
// (live_test.go, FuzzLiveKernelVsReference) extends that to in-place
// reconfiguration and image round-trips; a kernel change that breaks
// bit-identity fails those tests, so the fast path is only allowed to exist
// while it is indistinguishable from the reference.
package fastsim

import (
	"selftune/internal/cache"
	"selftune/internal/trace"
)

// rowShift is log2(cache.BankRows): frame index = bank<<rowShift | row.
const rowShift = 7

// frameMask folds every frame index into the array bounds so the compiler
// drops the bounds checks in the hot loops (indices are in range by
// construction: bank < NumBanks, row < BankRows).
const frameMask = cache.NumBanks*cache.BankRows - 1

// noFrame is the set-associative probe's no-match result. Its bank,
// noFrame>>rowShift, equals no prediction.
const noFrame = ^uint32(0)

// noPrediction marks an untrained way-predictor entry (cache.Configurable's
// sentinel).
const noPrediction = 0xFF

// frame is one 16 B physical line slot, identical in meaning to the
// reference cache's frame (block address, MRU timestamp, valid/dirty bits).
type frame struct {
	lastUse uint64
	block   uint32
	valid   bool
	dirty   bool
}

// Kernel is the fast replay kernel for the four-bank configurable cache:
// the engine replays one configuration from cold through it, and a tuning
// session serves through it as its live cache — SetConfig reconfigures it in
// place with the reference cache's §3.3 semantics, and Image/Restore
// round-trip it through the same cache.Image bytes. It does not support a
// victim buffer (no live session or engine model attaches one). The zero
// value is not usable.
type Kernel struct {
	// frames is the flat bank-major frame array: frames[bank<<7|row].
	// Every invalid frame holds invalidBlock, which no real block equals,
	// so a tag compare alone decides a hit.
	frames [cache.NumBanks * cache.BankRows]frame
	// pred is the MRU way predictor, indexed by logical set.
	pred  [2 * cache.BankRows]uint8
	clock uint64
	stats cache.Stats
	cfg   cache.Config

	// Per-configuration tables, recomputed by setTables on construction and
	// reconfiguration, so the access loop runs without the reference
	// simulator's bank-select switch.
	//
	// bankTab lists the candidate banks for each value of the bank-select
	// address bits (addr>>11)&3; nBanks is how many entries are live (the
	// associativity).
	bankTab [4][cache.NumBanks]uint8
	nBanks  int
	// predict is cfg.WayPredict (valid configurations imply Ways > 1).
	predict bool
	// predSelMask is the part of the bank-select bits the logical set
	// index consumes (see bankTable).
	predSelMask uint32
	// sublines is the logical line size in 16 B physical lines.
	sublines uint32
	// activeBanks bounds the DirtyLines scan.
	activeBanks int

	// runBlock is the block of the previous access in the set-associative
	// loop and runFrame the frame that access left it in; runBlock is
	// invalidBlock after construction and reconfiguration (see
	// ReplayBatch).
	runBlock uint32
	runFrame uint32
}

// New returns a cold kernel in configuration cfg: the fast twin of
// cache.NewConfigurable.
func New(cfg cache.Config) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := &Kernel{runBlock: invalidBlock}
	k.setTables(cfg)
	k.resetPredictor()
	for i := range k.frames {
		k.frames[i].block = invalidBlock
	}
	return k, nil
}

// setTables installs cfg and recomputes the per-configuration tables.
func (k *Kernel) setTables(cfg cache.Config) {
	k.cfg = cfg
	k.nBanks = cfg.Ways
	k.predict = cfg.WayPredict
	k.sublines = uint32(cfg.SublinesPerLine())
	k.activeBanks = cfg.ActiveBanks()
	k.bankTab, k.predSelMask = bankTable(cfg)
}

// bankTable transcribes cache.Configurable's candidate banks for cfg, for
// each value sel of the bank-select address bits (addr>>11)&3: way
// concatenation leaves groups = active banks / ways bank groups, the first
// candidate is the group select sel&(groups-1), and the others follow every
// groups banks, Ways in all. The probe order is the reference's (it decides
// hit-probe and victim tie-breaks). Slots past the associativity repeat the
// last candidate, so a set-associative probe may read all four
// unconditionally. predSelMask is the part of sel the way predictor's set
// index consumes: groups-1 when set-associative (1 on 8 KB two-way), else
// 0. Kernel and FusedKernel both build their tables here, once per
// configuration.
func bankTable(cfg cache.Config) (tab [4][cache.NumBanks]uint8, predSelMask uint32) {
	groups := uint32(cfg.ActiveBanks() / cfg.Ways)
	for sel := range tab {
		for w := range tab[sel] {
			tab[sel][w] = uint8(uint32(sel)&(groups-1) + uint32(min(w, cfg.Ways-1))*groups)
		}
	}
	if cfg.Ways > 1 {
		predSelMask = groups - 1
	}
	return tab, predSelMask
}

func (k *Kernel) resetPredictor() {
	for i := range k.pred {
		k.pred[i] = noPrediction
	}
}

// Must is New that panics on an invalid configuration, mirroring
// cache.MustConfigurable.
func Must(cfg cache.Config) *Kernel {
	k, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// Config returns the configuration the kernel replays.
func (k *Kernel) Config() cache.Config { return k.cfg }

// Stats returns the counters accumulated since the last ResetStats.
func (k *Kernel) Stats() cache.Stats { return k.stats }

// Misses is Stats().Misses without copying the counters: the settled
// session's per-window miss count is read around every served block.
func (k *Kernel) Misses() uint64 { return k.stats.Misses }

// ResetStats zeroes the counters without touching contents.
func (k *Kernel) ResetStats() { k.stats = cache.Stats{} }

// ReplayBatch replays a block of accesses through the kernel. It is the hot
// loop of every sweep and of every live session: allocation-free (pinned by
// test and benchmark) and free of per-access interface dispatch. Instruction
// fetches and loads are reads; only trace.DataWrite stores.
//
// Set-associative configurations fold runs, as the fused kernel does: an
// access to the same 16 B block as the previous access hits the frame that
// access left the block in, and — when predicting — is a first-probe hit,
// because that access trained the set's predictor to the frame's bank. The
// memo survives across calls, so per-access Access callers fold too;
// SetConfig clears it, since the candidate banks and the predictor change.
// Single-way configurations (a third of the space) take a loop with one
// candidate bank and no predictor, where a tag compare is the whole probe.
func (k *Kernel) ReplayBatch(accs []trace.Access) {
	if k.nBanks == 1 {
		k.replayDirect(accs)
		return
	}
	st := &k.stats
	clock := k.clock
	predict := k.predict
	predSelMask := k.predSelMask
	runBlock, runFrame := k.runBlock, k.runFrame
	var hits, runs, writes, predHits, predMisses uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		clock++
		if write {
			writes++
		}
		block := addr >> 4
		if block == runBlock {
			f := &k.frames[runFrame&frameMask]
			f.lastUse = clock
			if write {
				f.dirty = true
			}
			runs++
			continue
		}
		r := block & (cache.BankRows - 1)
		banks := &k.bankTab[(addr>>11)&3]
		// Load every candidate's tag up front and select the first match
		// in probe order (reconfiguration can leave a block in two
		// candidate frames): independent loads and conditional moves, no
		// data-dependent branch chain.
		f0 := uint32(banks[0])<<rowShift | r
		f1 := uint32(banks[1])<<rowShift | r
		f2 := uint32(banks[2])<<rowShift | r
		f3 := uint32(banks[3])<<rowShift | r
		hit := noFrame
		if k.frames[f3&frameMask].block == block {
			hit = f3
		}
		if k.frames[f2&frameMask].block == block {
			hit = f2
		}
		if k.frames[f1&frameMask].block == block {
			hit = f1
		}
		if k.frames[f0&frameMask].block == block {
			hit = f0
		}
		set := 0
		if predict {
			set = int(r | ((addr>>11)&predSelMask)<<rowShift)
			p := k.pred[set]
			if p == noPrediction {
				p = banks[0]
			}
			if hit>>rowShift == uint32(p) {
				// First probe hit: one way read, one cycle.
				predHits++
			} else {
				// Mispredicted: probe the rest next cycle.
				predMisses++
			}
		}
		runBlock = block
		if hit != noFrame {
			runFrame = hit
			f := &k.frames[hit&frameMask]
			f.lastUse = clock
			if write {
				f.dirty = true
			}
			hits++
			if predict {
				k.pred[set] = uint8(hit >> rowShift)
			}
			continue
		}
		runFrame = k.miss(block, write, banks, set, clock)
	}
	k.clock = clock
	k.runBlock, k.runFrame = runBlock, runFrame
	if predict {
		predHits += runs
	}
	st.Accesses += uint64(len(accs))
	st.Writes += writes
	st.Hits += hits + runs
	st.PredHits += predHits
	st.PredMisses += predMisses
	st.ExtraCycles += predMisses // each misprediction costs one extra cycle
}

// replayDirect is the single-way loop. The one candidate frame's tag
// compare is the whole probe, and counters accumulate in registers and
// flush once per batch. It keeps the LRU clock and timestamps exactly as the
// general loop does: an image records both, and a later reconfiguration to
// a multi-way configuration picks its victims by them.
func (k *Kernel) replayDirect(accs []trace.Access) {
	sublines := k.sublines
	clock := k.clock
	var hits, misses, writes, writebacks, filled uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		clock++
		if write {
			writes++
		}
		block := addr >> 4
		r := block & (cache.BankRows - 1)
		bank := uint32(k.bankTab[(addr>>11)&3][0])
		f := &k.frames[(bank<<rowShift|r)&frameMask]
		if f.block == block {
			f.lastUse = clock
			if write {
				f.dirty = true
			}
			hits++
			continue
		}
		misses++
		lineBase := block &^ (sublines - 1)
		for s := uint32(0); s < sublines; s++ {
			sb := lineBase + s
			ff := &k.frames[(bank<<rowShift|(sb&(cache.BankRows-1)))&frameMask]
			ff.lastUse = clock
			if ff.block == sb {
				continue // existing copy wins
			}
			if ff.dirty { // invalid frames are never dirty
				writebacks++
			}
			ff.valid = true
			ff.block = sb
			ff.dirty = false
			filled++
		}
		// The accessed subline missed, so it was just filled into f.
		f.lastUse = clock + 1
		f.dirty = write
	}
	k.clock = clock
	st := &k.stats
	st.Accesses += uint64(len(accs))
	st.Writes += writes
	st.Hits += hits
	st.Misses += misses
	st.Writebacks += writebacks
	st.SublinesFilled += filled
}

// miss fills the whole logical line, one 16 B subline at a time, exactly as
// the reference cache does: existing copy wins, else the first invalid
// frame, else the LRU frame; the accessed subline becomes MRU (clock+1) and
// trains the predictor. It returns the accessed subline's frame index.
func (k *Kernel) miss(block uint32, write bool, banks *[cache.NumBanks]uint8, set int, clock uint64) uint32 {
	st := &k.stats
	st.Misses++
	lineBase := block &^ (k.sublines - 1)
	n := k.nBanks
	var filled uint64
	var accessed uint32
	for i := uint32(0); i < k.sublines; i++ {
		sb := lineBase + i
		r := sb & (cache.BankRows - 1)
		fillBank := banks[0]
		var victimUse uint64 = ^uint64(0)
		present := false
		for w := 0; w < n; w++ {
			b := banks[w]
			f := &k.frames[uint32(b)<<rowShift|r]
			if f.valid && f.block == sb {
				fillBank, present = b, true
				break
			}
			if !f.valid {
				if victimUse != 0 { // first invalid wins
					fillBank, victimUse = b, 0
				}
				continue
			}
			if f.lastUse < victimUse {
				fillBank, victimUse = b, f.lastUse
			}
		}
		f := &k.frames[uint32(fillBank)<<rowShift|r]
		if !present {
			if f.valid && f.dirty {
				st.Writebacks++
			}
			f.valid = true
			f.dirty = false
			f.block = sb
			filled++
		}
		f.lastUse = clock
		if sb == block {
			f.lastUse = clock + 1 // accessed subline is MRU
			if write {
				f.dirty = true
			}
			if k.predict {
				k.pred[set] = fillBank
			}
			accessed = uint32(fillBank)<<rowShift | r
		}
	}
	st.SublinesFilled += filled
	return accessed
}

// Access performs one read or write — the cache.Simulator contract. It runs
// the same batched loop as ReplayBatch (a single implementation, so the two
// paths cannot diverge) and reconstructs the reference AccessResult from the
// counter deltas.
func (k *Kernel) Access(addr uint32, write bool) cache.AccessResult {
	before := k.stats
	kind := trace.DataRead
	if write {
		kind = trace.DataWrite
	}
	buf := [1]trace.Access{{Addr: addr, Kind: kind}}
	k.ReplayBatch(buf[:])
	d := k.stats
	res := cache.AccessResult{
		Hit:            d.Hits > before.Hits,
		Writebacks:     int(d.Writebacks - before.Writebacks),
		SublinesFilled: int(d.SublinesFilled - before.SublinesFilled),
		ExtraLatency:   int(d.ExtraCycles - before.ExtraCycles),
		WaysProbed:     k.nBanks,
	}
	if k.predict {
		res.PredFirstProbeHit = d.PredHits > before.PredHits
		if res.PredFirstProbeHit {
			res.WaysProbed = 1
		}
	}
	return res
}

// DirtyLines reports the valid dirty physical lines in active banks — the
// end-of-interval drain's writeback count.
func (k *Kernel) DirtyLines() int {
	n := 0
	for b := 0; b < k.activeBanks; b++ {
		base := b << rowShift
		for r := 0; r < cache.BankRows; r++ {
			f := &k.frames[base+r]
			if f.valid && f.dirty {
				n++
			}
		}
	}
	return n
}

var _ cache.Simulator = (*Kernel)(nil)
