package cache

import "fmt"

// Image is a complete, serialization-friendly snapshot of a Configurable's
// state: configuration, replacement clock, counters, way-predictor table and
// every valid frame. It exists so a long-running tuning process can persist
// the cache across process death (internal/checkpoint) and restore it
// bit-identically: a cache rebuilt from an Image behaves, access for access,
// exactly like the original.
//
// Invalid frames are not recorded — a frame only becomes invalid by being
// zeroed (way shutdown, flush), so absence and the zero frame coincide.
type Image struct {
	// Cfg is the applied configuration.
	Cfg Config
	// Clock is the global LRU timestamp counter.
	Clock uint64
	// Stats are the counters since the last ResetStats.
	Stats Stats
	// Pred is the way-predictor table (0xFF entries mean "no prediction").
	Pred []uint8
	// Frames lists the valid physical line slots.
	Frames []FrameImage
}

// FrameImage is one valid 16 B physical line slot.
type FrameImage struct {
	// Bank and Row locate the frame in the physical array.
	Bank, Row int
	// Dirty marks a modified line.
	Dirty bool
	// Block is the physical block address (addr >> 4).
	Block uint32
	// LastUse is the LRU timestamp.
	LastUse uint64
}

// Image captures the cache's complete state. Caches with an attached victim
// buffer are not snapshottable (the buffer's contents would be lost
// silently), so Image refuses rather than producing a lossy snapshot; an
// Image records no geometry, so only FourBank caches snapshot.
func (c *Configurable) Image() (Image, error) {
	if c.Victim != nil {
		return Image{}, fmt.Errorf("cache: cannot snapshot a cache with an attached victim buffer")
	}
	if c.geo != FourBank() {
		return Image{}, fmt.Errorf("cache: cannot snapshot a %d x %d B cache; images hold the four-bank geometry", c.geo.NumBanks, c.geo.BankBytes)
	}
	img := Image{
		Cfg:   c.cfg,
		Clock: c.clock,
		Stats: c.stats,
		Pred:  append([]uint8(nil), c.pred...),
	}
	for i, f := range c.frames {
		if f.valid {
			img.Frames = append(img.Frames, FrameImage{
				Bank: i >> c.rowBits, Row: c.row(uint32(i)), Dirty: f.dirty, Block: f.block, LastUse: f.lastUse,
			})
		}
	}
	return img, nil
}

// RestoreConfigurable rebuilds a cache from an Image, validating the image's
// internal consistency (a checkpoint that passed its CRC can still carry a
// logically impossible state if it was written by a buggy or hostile
// producer). The restored cache is behaviourally identical to the one the
// image was captured from.
func RestoreConfigurable(img Image) (*Configurable, error) {
	c, err := NewConfigurable(img.Cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: restore: %w", err)
	}
	if len(img.Pred) != len(c.pred) {
		return nil, fmt.Errorf("cache: restore: predictor table has %d entries, want %d", len(img.Pred), len(c.pred))
	}
	copy(c.pred, img.Pred)
	c.clock = img.Clock
	c.stats = img.Stats
	for _, f := range img.Frames {
		if f.Bank < 0 || f.Bank >= NumBanks || f.Row < 0 || f.Row >= BankRows {
			return nil, fmt.Errorf("cache: restore: frame (%d,%d) outside the %dx%d array", f.Bank, f.Row, NumBanks, BankRows)
		}
		if f.Block >= MaxBlocks {
			return nil, fmt.Errorf("cache: restore: block %#x beyond the 32-bit address space", f.Block)
		}
		if c.row(f.Block) != f.Row {
			return nil, fmt.Errorf("cache: restore: block %#x cannot reside in row %d", f.Block, f.Row)
		}
		*c.frame(f.Bank, f.Row) = frame{valid: true, dirty: f.Dirty, block: f.Block, lastUse: f.LastUse}
	}
	return c, nil
}
