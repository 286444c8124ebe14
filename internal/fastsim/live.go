package fastsim

import (
	"errors"
	"fmt"

	"selftune/internal/cache"
)

// errFixed refuses reconfiguration and imaging of a New kernel: its
// single-way loop keeps no clock, so neither would match the reference.
var errFixed = errors.New("fastsim: kernel replays one fixed configuration; build a reconfigurable one with NewLive or Restore")

// SetConfig reconfigures a live kernel in place, transcribing
// cache.Configurable.SetConfig (paper §3.3): contents are preserved and never
// flushed; way shutdown writes back the dirty lines of the deactivated banks
// (SettleWritebacks) and powers their frames off; dirty blocks stranded in
// frames their address no longer maps to are counted (StrandedDirty) and age
// out through normal replacement; the way predictor restarts untrained.
// Unlike the reference there is no AllowShrink guard — a kernel is only ever
// reconfigured by a tuner, and every tuner transition may shrink.
// Reapplying the current configuration is a no-op.
func (k *Kernel) SetConfig(next cache.Config) error {
	if !k.live {
		return errFixed
	}
	if err := next.Validate(); err != nil {
		return err
	}
	if next == k.cfg {
		return nil
	}
	oldBanks := k.activeBanks
	k.stats.Reconfigurations++
	k.setTables(next)
	// Deactivated banks power off and lose contents; dirty lines must be
	// written back first. The powered-off frame is the invalid sentinel.
	for b := k.activeBanks; b < oldBanks; b++ {
		for r := 0; r < cache.BankRows; r++ {
			f := &k.frames[b<<rowShift|r]
			if f.valid && f.dirty {
				k.stats.SettleWritebacks++
			}
			*f = frame{block: ^uint32(0)}
		}
	}
	// Count dirty blocks stranded in frames they no longer map to. A
	// block's bank-select bits are address bits 12:11, i.e. block bits 8:7.
	for b := 0; b < k.activeBanks; b++ {
		for r := 0; r < cache.BankRows; r++ {
			f := &k.frames[b<<rowShift|r]
			if !f.valid || !f.dirty {
				continue
			}
			mapped := false
			for _, cb := range k.bankTab[(f.block>>7)&3][:k.nBanks] {
				if int(cb) == b {
					mapped = true
					break
				}
			}
			if !mapped {
				k.stats.StrandedDirty++
			}
		}
	}
	k.resetPredictor()
	return nil
}

// Reconfigure is SetConfig under the name the tuner's live-cache interface
// shares with cache.Configurable (where it permits shrinking transitions).
func (k *Kernel) Reconfigure(next cache.Config) error { return k.SetConfig(next) }

// Image captures a live kernel's complete state as the cache.Image that
// cache.Configurable.Image produces for the same history — the same frames
// in the same bank-major order, so checkpoint bytes do not depend on which
// simulator served the stream.
func (k *Kernel) Image() (cache.Image, error) {
	if !k.live {
		return cache.Image{}, errFixed
	}
	img := cache.Image{
		Cfg:   k.cfg,
		Clock: k.clock,
		Stats: k.stats,
		Pred:  append([]uint8(nil), k.pred[:]...),
	}
	for i := range k.frames {
		f := &k.frames[i]
		if f.valid {
			img.Frames = append(img.Frames, cache.FrameImage{
				Bank: i >> rowShift, Row: i & (cache.BankRows - 1),
				Dirty: f.dirty, Block: f.block, LastUse: f.lastUse,
			})
		}
	}
	return img, nil
}

// Restore rebuilds a live kernel from an Image, with every validation
// cache.RestoreConfigurable applies: a checkpoint that passed its CRC can
// still carry a logically impossible state if it was written by a buggy or
// hostile producer. The restored kernel behaves, access for access, like a
// cache.Configurable restored from the same image.
func Restore(img cache.Image) (*Kernel, error) {
	k, err := NewLive(img.Cfg)
	if err != nil {
		return nil, fmt.Errorf("fastsim: restore: %w", err)
	}
	if len(img.Pred) != len(k.pred) {
		return nil, fmt.Errorf("fastsim: restore: predictor table has %d entries, want %d", len(img.Pred), len(k.pred))
	}
	copy(k.pred[:], img.Pred)
	k.clock = img.Clock
	k.stats = img.Stats
	for _, f := range img.Frames {
		if f.Bank < 0 || f.Bank >= cache.NumBanks || f.Row < 0 || f.Row >= cache.BankRows {
			return nil, fmt.Errorf("fastsim: restore: frame (%d,%d) outside the %dx%d array", f.Bank, f.Row, cache.NumBanks, cache.BankRows)
		}
		if int(f.Block&(cache.BankRows-1)) != f.Row {
			return nil, fmt.Errorf("fastsim: restore: block %#x cannot reside in row %d", f.Block, f.Row)
		}
		k.frames[f.Bank<<rowShift|f.Row] = frame{valid: true, dirty: f.Dirty, block: f.Block, lastUse: f.LastUse}
	}
	return k, nil
}
