package cache

import (
	"fmt"

	"selftune/internal/trace"
)

// frame is one 16 B physical line slot.
type frame struct {
	valid bool
	dirty bool
	// block is the physical block address (addr >> 4). Storing the whole
	// block address models the paper's "always check the full tag"
	// design decision (§3.3): hits stay correct across reconfiguration.
	block uint32
	// lastUse is a global-counter timestamp used for LRU replacement.
	lastUse uint64
}

// Configurable is the four-bank configurable cache. The zero value is not
// usable; construct with NewConfigurable.
//
// Contents are kept at 16 B physical-line granularity in a fixed
// NumBanks x BankRows frame array, so reconfiguration (way shutdown, way
// concatenation, line concatenation) naturally preserves contents exactly as
// the hardware does: a frame's row is a pure function of its block address
// and never changes; only the bank an address *maps* to changes.
type Configurable struct {
	cfg   Config
	banks [NumBanks][BankRows]frame
	pred  [2 * BankRows]uint8 // MRU way predictor, indexed by set
	clock uint64
	stats Stats
	// AllowShrink permits transitions that reduce size. The heuristic's
	// ordering never needs them mid-search; the largest-first ablation
	// sets this and pays the settle writebacks.
	AllowShrink bool
	// Victim, when non-nil, is probed on every main-cache miss before
	// going off chip (the authors' companion victim-buffer study).
	Victim *VictimBuffer
}

const noPrediction = 0xFF

// NewConfigurable returns a cache in configuration cfg with cold contents.
func NewConfigurable(cfg Config) (*Configurable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Configurable{cfg: cfg}
	c.resetPredictor()
	return c, nil
}

// MustConfigurable is NewConfigurable that panics on an invalid config; for
// tests and examples with literal configurations.
func MustConfigurable(cfg Config) *Configurable {
	c, err := NewConfigurable(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the current configuration.
func (c *Configurable) Config() Config { return c.cfg }

// Stats returns the counters accumulated since the last ResetStats.
func (c *Configurable) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching contents.
func (c *Configurable) ResetStats() { c.stats = Stats{} }

func (c *Configurable) resetPredictor() {
	for i := range c.pred {
		c.pred[i] = noPrediction
	}
}

// candidateBanks returns the banks an address may reside in under the
// current configuration, into the caller-provided buffer.
//
// Bank selection follows the ISCA'03 layout: the row within a bank is always
// address bits [10:4]; way concatenation consumes address bits 11 (and 12)
// as bank-select bits.
func (c *Configurable) candidateBanks(addr uint32, buf *[NumBanks]uint8) []uint8 {
	switch {
	case c.cfg.SizeBytes == 8192 && c.cfg.Ways == 4:
		buf[0], buf[1], buf[2], buf[3] = 0, 1, 2, 3
		return buf[:4]
	case c.cfg.SizeBytes == 8192 && c.cfg.Ways == 2:
		b := uint8((addr >> 11) & 1)
		buf[0], buf[1] = b, 2+b
		return buf[:2]
	case c.cfg.SizeBytes == 8192 && c.cfg.Ways == 1:
		buf[0] = uint8((addr >> 11) & 3)
		return buf[:1]
	case c.cfg.SizeBytes == 4096 && c.cfg.Ways == 2:
		buf[0], buf[1] = 0, 1
		return buf[:2]
	case c.cfg.SizeBytes == 4096 && c.cfg.Ways == 1:
		buf[0] = uint8((addr >> 11) & 1)
		return buf[:1]
	default: // 2048, 1-way
		buf[0] = 0
		return buf[:1]
	}
}

// setIndex returns the logical set index an address maps to, used to index
// the way predictor. It matches the hardware's set identity: the bank row
// plus any bank-select bit consumed by way concatenation.
func (c *Configurable) setIndex(addr uint32) int {
	row := int((addr >> 4) & (BankRows - 1))
	if c.cfg.Ways == 2 && c.cfg.SizeBytes == 8192 {
		row |= int((addr>>11)&1) << 7
	}
	return row
}

func row(block uint32) int { return int(block & (BankRows - 1)) }

// Access performs one read or write of the word at addr.
func (c *Configurable) Access(addr uint32, write bool) AccessResult {
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}

	block := addr >> 4
	r := row(block)
	var bankBuf [NumBanks]uint8
	banks := c.candidateBanks(addr, &bankBuf)

	var res AccessResult
	hitBank := -1
	for _, b := range banks {
		f := &c.banks[b][r]
		if f.valid && f.block == block {
			hitBank = int(b)
			break
		}
	}

	predicting := c.cfg.WayPredict && c.cfg.Ways > 1
	if predicting {
		set := c.setIndex(addr)
		p := c.pred[set]
		if p == noPrediction {
			p = banks[0]
		}
		if hitBank == int(p) {
			// First probe hit: one way read, one cycle.
			res.PredFirstProbeHit = true
			res.WaysProbed = 1
			c.stats.PredHits++
		} else {
			// Mispredicted: probe the rest next cycle.
			res.WaysProbed = len(banks)
			res.ExtraLatency = 1
			c.stats.PredMisses++
			c.stats.ExtraCycles++
		}
	} else {
		res.WaysProbed = len(banks)
	}

	if hitBank >= 0 {
		f := &c.banks[hitBank][r]
		f.lastUse = c.clock
		if write {
			f.dirty = true
		}
		res.Hit = true
		c.stats.Hits++
		if predicting {
			c.pred[c.setIndex(addr)] = uint8(hitBank)
		}
		return res
	}

	// Miss: fill the whole logical line, one 16 B subline at a time.
	c.stats.Misses++
	lineBase := block &^ uint32(c.cfg.SublinesPerLine()-1)
	for i := 0; i < c.cfg.SublinesPerLine(); i++ {
		sb := lineBase + uint32(i)
		fillBank, present := c.fillSubline(sb, banks)
		f := &c.banks[fillBank][row(sb)]
		if !present {
			// Fetch source: the victim buffer if it holds the block,
			// otherwise off-chip memory.
			fromVictim, victimDirty := false, false
			if c.Victim != nil {
				c.stats.VictimProbes++
				victimDirty, fromVictim = c.Victim.take(sb)
				if fromVictim {
					c.stats.VictimHits++
					if sb == block {
						res.VictimHit = true
					}
				}
			}
			// Evict the displaced line: into the victim buffer when one
			// is attached (a buffer displacement pays the writeback),
			// else straight to memory if dirty. Refresh-in-place keeps
			// its data (and dirty state) and needs no fetch at all.
			if f.valid {
				if c.Victim != nil {
					if c.Victim.insert(f.block, f.dirty) {
						res.Writebacks++
						c.stats.Writebacks++
					}
				} else if f.dirty {
					res.Writebacks++
					c.stats.Writebacks++
				}
			}
			f.valid = true
			f.dirty = victimDirty
			f.block = sb
			if !fromVictim {
				res.SublinesFilled++
			}
		}
		f.lastUse = c.clock
		if sb == block {
			f.lastUse = c.clock + 1 // accessed subline is MRU
			if write {
				f.dirty = true
			}
			if predicting {
				c.pred[c.setIndex(addr)] = uint8(fillBank)
			}
		}
	}
	c.stats.SublinesFilled += uint64(res.SublinesFilled)
	return res
}

// fillSubline picks the bank whose frame at the subline's row will receive
// the subline: an existing copy if present, else an invalid frame, else the
// LRU frame. present reports whether the subline was already cached.
func (c *Configurable) fillSubline(sb uint32, banks []uint8) (bank uint8, present bool) {
	r := row(sb)
	victim := banks[0]
	var victimUse uint64 = ^uint64(0)
	for _, b := range banks {
		f := &c.banks[b][r]
		if f.valid && f.block == sb {
			return b, true
		}
		if !f.valid {
			if victimUse != 0 { // first invalid wins
				victim, victimUse = b, 0
			}
			continue
		}
		if f.lastUse < victimUse {
			victim, victimUse = b, f.lastUse
		}
	}
	return victim, false
}

// SetConfig reconfigures the cache without flushing, per paper §3.3:
// contents are preserved; blocks stranded in frames their address no longer
// maps to age out through normal replacement. Transitions that reduce size
// require AllowShrink and charge SettleWritebacks for dirty lines in
// deactivated banks (which lose state on way shutdown).
func (c *Configurable) SetConfig(next Config) error {
	if err := next.Validate(); err != nil {
		return err
	}
	if next == c.cfg {
		return nil
	}
	if next.SizeBytes < c.cfg.SizeBytes && !c.AllowShrink {
		return fmt.Errorf("cache: transition %v -> %v shrinks the cache and would force writebacks; set AllowShrink to permit it", c.cfg, next)
	}
	oldBanks := c.cfg.ActiveBanks()
	c.stats.Reconfigurations++
	c.cfg = next
	// Deactivated banks power off and lose contents; dirty lines must be
	// written back first.
	for b := next.ActiveBanks(); b < oldBanks; b++ {
		for r := range c.banks[b] {
			f := &c.banks[b][r]
			if f.valid && f.dirty {
				c.stats.SettleWritebacks++
			}
			*f = frame{}
		}
	}
	// Count dirty blocks stranded in frames they no longer map to.
	var bankBuf [NumBanks]uint8
	for b := 0; b < next.ActiveBanks(); b++ {
		for r := range c.banks[b] {
			f := &c.banks[b][r]
			if !f.valid || !f.dirty {
				continue
			}
			mapped := false
			for _, cb := range c.candidateBanks(f.block<<4, &bankBuf) {
				if int(cb) == b {
					mapped = true
					break
				}
			}
			if !mapped {
				c.stats.StrandedDirty++
			}
		}
	}
	c.resetPredictor()
	return nil
}

// Reconfigure is SetConfig with shrinking transitions permitted: the
// tuner's transition, whose retreats and final settle may shrink and pay
// the way-shutdown writebacks.
func (c *Configurable) Reconfigure(next Config) error {
	allow := c.AllowShrink
	c.AllowShrink = true
	err := c.SetConfig(next)
	c.AllowShrink = allow
	return err
}

// ReplayBatch performs a block of accesses, one Access each; only
// trace.DataWrite stores. It gives the reference simulator the batch entry
// point of the fast kernels so either can serve a tuning session.
func (c *Configurable) ReplayBatch(accs []trace.Access) {
	for i := range accs {
		c.Access(accs[i].Addr, accs[i].Kind == trace.DataWrite)
	}
}

// Flush writes back all dirty lines (counted as Writebacks) and invalidates
// the entire cache. The self-tuning heuristic never calls this; it exists
// for the flush-cost ablation and for tests.
func (c *Configurable) Flush() {
	for b := range c.banks {
		for r := range c.banks[b] {
			f := &c.banks[b][r]
			if f.valid && f.dirty {
				c.stats.Writebacks++
			}
			*f = frame{}
		}
	}
	c.resetPredictor()
}

// Contains reports whether the block holding addr is present and mapped
// under the current configuration (test helper).
func (c *Configurable) Contains(addr uint32) bool {
	block := addr >> 4
	var bankBuf [NumBanks]uint8
	for _, b := range c.candidateBanks(addr, &bankBuf) {
		f := &c.banks[b][row(block)]
		if f.valid && f.block == block {
			return true
		}
	}
	return false
}

// DirtyLines returns the number of valid dirty physical lines in active
// banks plus the attached victim buffer (used by the flush ablation and the
// end-of-interval drain to size writeback cost).
func (c *Configurable) DirtyLines() int {
	n := 0
	for b := 0; b < c.cfg.ActiveBanks(); b++ {
		for r := range c.banks[b] {
			if c.banks[b][r].valid && c.banks[b][r].dirty {
				n++
			}
		}
	}
	if c.Victim != nil {
		for _, e := range c.Victim.entries {
			if e.valid && e.dirty {
				n++
			}
		}
	}
	return n
}

var _ Simulator = (*Configurable)(nil)
