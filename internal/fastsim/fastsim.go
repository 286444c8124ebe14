// Package fastsim provides allocation-free replay kernels for the cache
// simulators: a four-bank configurable-cache kernel covering the paper's 27
// configurations and a generic set-associative kernel covering the Figure 2
// sweep geometries. The kernels are drop-in engine.Simulator implementations
// that additionally expose a batched access loop (ReplayBatch), which the
// replay engine uses to eliminate per-access interface dispatch.
//
// The kernels are bit-identical to the reference simulators by construction
// and by proof: every per-access decision — candidate-bank order, the
// first-invalid-wins victim choice, MRU timestamps, predictor updates — is a
// direct transcription of cache.Configurable and cache.Generic with the
// per-access dispatch (the bank-select switch, method calls, AccessResult
// materialisation) hoisted into tables precomputed at construction. The
// differential oracle (oracle_test.go) and the FuzzFastSimVsReference fuzz
// target hold the kernels to identical cache.Stats, energies and tuner
// trajectories across all 27 configurations; a kernel change that breaks
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

// Kernel is the fast replay kernel for the four-bank configurable cache.
// A kernel built by New replays one fixed configuration from cold — the
// engine's per-configuration replay contract. A kernel built by NewLive or
// Restore is the live cache a tuning session serves through: SetConfig
// reconfigures it in place with the reference cache's §3.3 semantics, and
// Image/Restore round-trip it through the same cache.Image bytes. Neither
// kind supports a victim buffer (no live session or engine model attaches
// one). The zero value is not usable.
type Kernel struct {
	// frames is the flat bank-major frame array: frames[bank<<7|row].
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
	// predSelMask is 1 when the logical set index consumes address bit 11
	// (8 KB two-way: way concatenation's bank-select bit), else 0.
	predSelMask uint32
	// sublines is the logical line size in 16 B physical lines.
	sublines uint32
	// activeBanks bounds the DirtyLines scan.
	activeBanks int

	// live marks a reconfigurable kernel (NewLive, Restore). Its loops keep
	// the LRU clock and timestamps in every configuration, because images
	// record both and a later reconfiguration to a multi-way configuration
	// reads them. dm selects replayDM, the clock-free single-way loop, which
	// only fixed-configuration kernels may take.
	live bool
	dm   bool
}

// New returns a cold fixed-configuration kernel in configuration cfg.
func New(cfg cache.Config) (*Kernel, error) { return newKernel(cfg, false) }

// NewLive returns a cold reconfigurable kernel in configuration cfg: the
// fast twin of cache.NewConfigurable that a tuning session serves through.
func NewLive(cfg cache.Config) (*Kernel, error) { return newKernel(cfg, true) }

func newKernel(cfg cache.Config, live bool) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := &Kernel{live: live}
	k.setTables(cfg)
	k.resetPredictor()
	// Sentinel blocks let the direct-mapped loop fold the valid check into
	// the block compare: a real block is addr>>4 < 1<<28, so all-ones never
	// matches. The general loop still checks valid, which is also still
	// false; the sentinel is inert there.
	for i := range k.frames {
		k.frames[i].block = ^uint32(0)
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
	k.predSelMask = 0
	if cfg.SizeBytes == 8192 && cfg.Ways == 2 {
		k.predSelMask = 1
	}
	k.dm = k.nBanks == 1 && !k.predict && !k.live
	// Transcribe cache.Configurable.candidateBanks for each value of the
	// bank-select bits, preserving the probe order (it decides hit-probe
	// and victim tie-breaks).
	for sel := uint32(0); sel < 4; sel++ {
		tab := &k.bankTab[sel]
		switch {
		case cfg.SizeBytes == 8192 && cfg.Ways == 4:
			tab[0], tab[1], tab[2], tab[3] = 0, 1, 2, 3
		case cfg.SizeBytes == 8192 && cfg.Ways == 2:
			b := uint8(sel & 1)
			tab[0], tab[1] = b, 2+b
		case cfg.SizeBytes == 8192 && cfg.Ways == 1:
			tab[0] = uint8(sel & 3)
		case cfg.SizeBytes == 4096 && cfg.Ways == 2:
			tab[0], tab[1] = 0, 1
		case cfg.SizeBytes == 4096 && cfg.Ways == 1:
			tab[0] = uint8(sel & 1)
		default: // 2048, 1-way
			tab[0] = 0
		}
	}
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
// fetches and loads are reads; only trace.DataWrite stores. On a
// fixed-configuration kernel, single-way configurations without way
// prediction (a third of the space) take a specialised loop that skips the
// clock and LRU bookkeeping outright — with one candidate bank and no
// reconfiguration ahead the timestamps are never compared and never
// observable.
func (k *Kernel) ReplayBatch(accs []trace.Access) {
	if k.dm {
		k.replayDM(accs)
		return
	}
	st := &k.stats
	clock := k.clock
	predict := k.predict
	predSelMask := k.predSelMask
	n := k.nBanks
	var hits, writes, predHits, predMisses uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		clock++
		if write {
			writes++
		}
		block := addr >> 4
		r := block & (cache.BankRows - 1)
		banks := &k.bankTab[(addr>>11)&3]
		hitBank := -1
		var hf *frame
		for w := 0; w < n; w++ {
			f := &k.frames[(uint32(banks[w])<<rowShift|r)&frameMask]
			if f.valid && f.block == block {
				hitBank = int(banks[w])
				hf = f
				break
			}
		}
		set := 0
		if predict {
			set = int(r | ((addr>>11)&predSelMask)<<rowShift)
			p := k.pred[set]
			if p == noPrediction {
				p = banks[0]
			}
			if hitBank == int(p) {
				// First probe hit: one way read, one cycle.
				predHits++
			} else {
				// Mispredicted: probe the rest next cycle.
				predMisses++
			}
		}
		if hf != nil {
			hf.lastUse = clock
			if write {
				hf.dirty = true
			}
			hits++
			if predict {
				k.pred[set] = uint8(hitBank)
			}
			continue
		}
		k.miss(block, write, banks, set, clock)
	}
	k.clock = clock
	st.Accesses += uint64(len(accs))
	st.Writes += writes
	st.Hits += hits
	st.PredHits += predHits
	st.PredMisses += predMisses
	st.ExtraCycles += predMisses // each misprediction costs one extra cycle
}

// replayDM is the single-way loop of fixed-configuration kernels. Sentinel
// blocks fold the valid check into the block compare; counters accumulate in
// registers and flush once per batch. The clock is deliberately not
// advanced: with a single candidate bank no replacement decision ever reads
// a timestamp. A live kernel never runs it — its image records the clock,
// and a later multi-way configuration compares the timestamps.
func (k *Kernel) replayDM(accs []trace.Access) {
	sublines := k.sublines
	var hits, misses, writes, writebacks, filled uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		if write {
			writes++
		}
		block := addr >> 4
		r := block & (cache.BankRows - 1)
		bank := uint32(k.bankTab[(addr>>11)&3][0])
		f := &k.frames[(bank<<rowShift|r)&frameMask]
		if f.block == block {
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
			if ff.block == sb {
				// Existing copy wins; only the accessed subline can dirty it.
				if sb == block && write {
					ff.dirty = true
				}
				continue
			}
			if ff.dirty { // invalid frames are never dirty
				writebacks++
			}
			ff.valid = true
			ff.block = sb
			ff.dirty = sb == block && write
			filled++
		}
	}
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
// trains the predictor.
func (k *Kernel) miss(block uint32, write bool, banks *[cache.NumBanks]uint8, set int, clock uint64) {
	st := &k.stats
	st.Misses++
	lineBase := block &^ (k.sublines - 1)
	n := k.nBanks
	var filled uint64
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
		}
	}
	st.SublinesFilled += filled
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
