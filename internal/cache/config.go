// Package cache models the highly configurable cache of Zhang, Vahid and
// Lysecky (ISCA'03) that the DATE'04 self-tuning architecture tunes, plus a
// generic set-associative cache used as a SimpleScalar sim-cache stand-in.
//
// The configurable cache is physically four 2 KB banks with a fixed 16-byte
// physical line. Three mechanisms derive the 27 tunable configurations:
//
//   - way shutdown disables banks to reduce total size (8, 4 or 2 KB),
//   - way concatenation fuses banks into wider ways to reduce associativity
//     at a given size (4, 2 or 1-way at 8 KB; 2 or 1-way at 4 KB; 1-way at
//     2 KB),
//   - line concatenation fills multiple adjacent 16 B physical lines on a
//     miss to realise 32 B and 64 B logical lines,
//
// and an MRU way predictor may be enabled on set-associative configurations.
package cache

import "fmt"

// Physical geometry of the configurable cache (ISCA'03 design).
const (
	// PhysLineBytes is the physical line size. Logical line sizes are
	// multiples of it, realised by line concatenation.
	PhysLineBytes = 16
	// BankBytes is the capacity of one bank (one way at full size).
	BankBytes = 2048
	// NumBanks is the number of banks; all four active gives 8 KB.
	NumBanks = 4
	// BankRows is the number of physical lines per bank.
	BankRows = BankBytes / PhysLineBytes // 128
	// MaxSizeBytes is the full-capacity total size.
	MaxSizeBytes = NumBanks * BankBytes // 8192
	// MaxBlocks bounds the physical block addresses: every 32-bit address
	// addr lies in block addr>>4 < MaxBlocks.
	MaxBlocks = 1 << (32 - 4)
)

// Config selects one configuration of the configurable cache.
type Config struct {
	// SizeBytes is the total active capacity: 2048, 4096 or 8192.
	SizeBytes int
	// Ways is the associativity: 1, 2 or 4, constrained by SizeBytes
	// because size is reduced by shutting down ways.
	Ways int
	// LineBytes is the logical line size: 16, 32 or 64.
	LineBytes int
	// WayPredict enables the MRU way predictor. Only meaningful when
	// Ways > 1.
	WayPredict bool
}

// Validate reports whether c is one of the 27 realisable configurations of
// the paper's four-bank cache (FourBank's rules).
func (c Config) Validate() error { return FourBank().ValidateConfig(c) }

// Sets returns the number of logical sets (at physical-line granularity the
// row count is fixed; Sets reflects the logical view size/ways/line).
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// ActiveBanks returns how many banks are powered (size / 2 KB).
func (c Config) ActiveBanks() int { return c.SizeBytes / BankBytes }

// SublinesPerLine returns how many 16 B physical lines one logical line spans.
func (c Config) SublinesPerLine() int { return c.LineBytes / PhysLineBytes }

// String renders the configuration in the paper's Table 1 notation,
// e.g. "8K_4W_32B" or "8K_4W_16B_P".
func (c Config) String() string {
	s := fmt.Sprintf("%dK_%dW_%dB", c.SizeBytes/1024, c.Ways, c.LineBytes)
	if c.WayPredict {
		s += "_P"
	}
	return s
}

// ParseConfig parses the Table 1 notation produced by Config.String.
func ParseConfig(s string) (Config, error) {
	var c Config
	var kb, ways, line int
	var pred string
	n, err := fmt.Sscanf(s, "%dK_%dW_%dB%s", &kb, &ways, &line, &pred)
	if err != nil && n < 3 {
		return Config{}, fmt.Errorf("cache: cannot parse config %q: %v", s, err)
	}
	c.SizeBytes = kb * 1024
	c.Ways = ways
	c.LineBytes = line
	if n == 4 {
		if pred != "_P" {
			return Config{}, fmt.Errorf("cache: cannot parse config %q: unexpected suffix %q", s, pred)
		}
		c.WayPredict = true
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MinConfig is the heuristic's starting point: the smallest cache,
// direct-mapped, with the smallest line and prediction off (paper §3.4).
func MinConfig() Config { return FourBank().MinConfig() }

// BaseConfig is the fixed four-way set-associative base cache that Table 1
// energy savings are reported against.
func BaseConfig() Config {
	return Config{SizeBytes: 8192, Ways: 4, LineBytes: 32}
}

// AllConfigs enumerates the 27 valid configurations in deterministic order
// (size, then ways, then line, then prediction): FourBank().Configs().
func AllConfigs() []Config { return FourBank().Configs() }

// BaseConfigs enumerates the 18 configurations with way prediction off
// (the configuration space of Figures 3 and 4).
func BaseConfigs() []Config {
	var out []Config
	for _, c := range AllConfigs() {
		if !c.WayPredict {
			out = append(out, c)
		}
	}
	return out
}

// Grows reports whether switching from c to next only grows capacity and
// associativity, i.e. the transition is flush-free per paper §3.3. Line-size
// changes are always flush-free because the physical line is 16 B.
func (c Config) Grows(next Config) bool {
	return next.SizeBytes >= c.SizeBytes && next.Ways >= c.Ways
}
