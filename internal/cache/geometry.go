package cache

import (
	"fmt"
	"math/bits"
)

// A Geometry generalises the four-bank configurable cache to an arbitrary
// power-of-two bank count — the paper's §3.4 future work ("while our search
// heuristic is scalable to larger caches... we have not analyzed the
// accuracy of our heuristic with larger caches"). A Geometry of B banks of
// S bytes supports total sizes S..B*S by way shutdown, associativities
// 1..B by way concatenation, and any line size that is a multiple of the
// 16 B physical line. Configurable simulates any Geometry; FourBank is the
// paper's, and Config's Validate, AllConfigs and MinConfig are FourBank's
// rules: a Geometry is the one place the configurable cache's rules are
// written.

// Geometry fixes the physical organisation of a configurable cache.
type Geometry struct {
	// BankBytes is the capacity of one bank; power of two.
	BankBytes int
	// NumBanks is the number of banks; power of two.
	NumBanks int
	// MaxLineBytes bounds line concatenation; multiple of PhysLineBytes.
	MaxLineBytes int
}

// FourBank is the paper's geometry: four 2 KB banks, lines to 64 B.
func FourBank() Geometry {
	return Geometry{BankBytes: BankBytes, NumBanks: NumBanks, MaxLineBytes: 64}
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if g.BankBytes < PhysLineBytes || bits.OnesCount(uint(g.BankBytes)) != 1 {
		return fmt.Errorf("cache: bank size %d not a power of two >= %d", g.BankBytes, PhysLineBytes)
	}
	if g.NumBanks < 1 || bits.OnesCount(uint(g.NumBanks)) != 1 {
		return fmt.Errorf("cache: bank count %d not a power of two", g.NumBanks)
	}
	// The way predictor stores a bank number in a byte whose all-ones
	// value means "no prediction".
	if g.NumBanks >= noPrediction {
		return fmt.Errorf("cache: bank count %d exceeds the way predictor's %d", g.NumBanks, noPrediction/2+1)
	}
	if g.MaxLineBytes < PhysLineBytes || g.MaxLineBytes%PhysLineBytes != 0 ||
		bits.OnesCount(uint(g.MaxLineBytes)) != 1 {
		return fmt.Errorf("cache: max line %d not a power-of-two multiple of %d", g.MaxLineBytes, PhysLineBytes)
	}
	return nil
}

// MaxSizeBytes is the full-capacity size.
func (g Geometry) MaxSizeBytes() int { return g.BankBytes * g.NumBanks }

// bankRows is the number of physical lines per bank.
func (g Geometry) bankRows() int { return g.BankBytes / PhysLineBytes }

// predEntries sizes the way predictor: one entry per set of a
// set-associative configuration, whose way concatenation leaves at most
// NumBanks/2 bank groups of bankRows sets each. On FourBank that is
// 2*BankRows.
func (g Geometry) predEntries() int { return g.bankRows() * max(1, g.NumBanks/2) }

// SizeValues lists the realisable total sizes, smallest first: the sweep
// order the heuristic uses (paper §3.4: C[1..n]; A[1..m] and L[1..p] below).
func (g Geometry) SizeValues() []int { return doublings(g.BankBytes, g.NumBanks) }

// AssocValues lists the realisable associativities, smallest first.
func (g Geometry) AssocValues() []int { return doublings(1, g.NumBanks) }

// LineValues lists the realisable line sizes, smallest first.
func (g Geometry) LineValues() []int {
	return doublings(PhysLineBytes, g.MaxLineBytes/PhysLineBytes)
}

// doublings lists unit*m for m = 1, 2, 4, ... up to n, in one allocation.
func doublings(unit, n int) []int {
	out := make([]int, 0, bits.Len(uint(n)))
	for m := 1; m <= n; m *= 2 {
		out = append(out, unit*m)
	}
	return out
}

// ValidateConfig checks a configuration against the geometry: size is a
// power-of-two number of banks, associativity is realisable by way
// concatenation within the active banks, prediction needs associativity.
func (g Geometry) ValidateConfig(c Config) error {
	banks := c.SizeBytes / g.BankBytes
	if c.SizeBytes%g.BankBytes != 0 || banks < 1 || banks > g.NumBanks ||
		bits.OnesCount(uint(banks)) != 1 {
		return fmt.Errorf("cache: size %d not realisable with %d x %d-byte banks", c.SizeBytes, g.NumBanks, g.BankBytes)
	}
	if c.Ways < 1 || c.Ways > banks || bits.OnesCount(uint(c.Ways)) != 1 {
		return fmt.Errorf("cache: %d ways not realisable at %d bytes (%d of %d banks active)", c.Ways, c.SizeBytes, banks, g.NumBanks)
	}
	if c.LineBytes < PhysLineBytes || c.LineBytes > g.MaxLineBytes ||
		bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache: line %d not a power of two from %d to %d", c.LineBytes, PhysLineBytes, g.MaxLineBytes)
	}
	if c.WayPredict && c.Ways == 1 {
		return fmt.Errorf("cache: way prediction requires a set-associative configuration")
	}
	return nil
}

// Configs enumerates every realisable configuration in deterministic order.
func (g Geometry) Configs() []Config {
	var out []Config
	for _, size := range g.SizeValues() {
		for _, ways := range g.AssocValues() {
			for _, line := range g.LineValues() {
				c := Config{SizeBytes: size, Ways: ways, LineBytes: line}
				if g.ValidateConfig(c) != nil {
					continue
				}
				out = append(out, c)
				if ways > 1 {
					p := c
					p.WayPredict = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// MinConfig is the smallest configuration (the heuristic's start).
func (g Geometry) MinConfig() Config {
	return Config{SizeBytes: g.BankBytes, Ways: 1, LineBytes: PhysLineBytes}
}
