package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := MustConfigurable(MinConfig())
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	if r.SublinesFilled != 1 {
		t.Fatalf("16 B line fill moved %d sublines, want 1", r.SublinesFilled)
	}
	r = c.Access(0x1004, false)
	if !r.Hit {
		t.Fatal("second access to same 16 B line missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 accesses / 1 hit / 1 miss", st)
	}
}

func TestLineConcatenationFillsWholeLogicalLine(t *testing.T) {
	cfg := Config{SizeBytes: 8192, Ways: 1, LineBytes: 64}
	c := MustConfigurable(cfg)
	r := c.Access(0x1010, false) // second subline of the 64 B line at 0x1000
	if r.Hit || r.SublinesFilled != 4 {
		t.Fatalf("64 B line miss filled %d sublines (hit=%v), want 4", r.SublinesFilled, r.Hit)
	}
	// Every subline of the 64 B aligned region must now hit.
	for _, a := range []uint32{0x1000, 0x1010, 0x1020, 0x1030} {
		if got := c.Access(a, false); !got.Hit {
			t.Errorf("subline %#x missed after 64 B line fill", a)
		}
	}
	// The neighbouring line must not have been fetched.
	if c.Contains(0x1040) {
		t.Error("fill leaked into the next 64 B line")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 2 KB direct-mapped: addresses 2 KB apart conflict.
	c := MustConfigurable(MinConfig())
	c.Access(0x0000, false)
	c.Access(0x0800, false) // evicts 0x0000
	if c.Contains(0x0000) {
		t.Error("2 KB direct-mapped kept two blocks 2 KB apart in one frame")
	}
	if r := c.Access(0x0000, false); r.Hit {
		t.Error("conflicting block hit after eviction")
	}
}

func TestFourWayHoldsFourConflictingBlocks(t *testing.T) {
	cfg := Config{SizeBytes: 8192, Ways: 4, LineBytes: 16}
	c := MustConfigurable(cfg)
	addrs := []uint32{0x0000, 0x2000, 0x4000, 0x6000} // same row, 4 ways
	for _, a := range addrs {
		c.Access(a, false)
	}
	for _, a := range addrs {
		if r := c.Access(a, false); !r.Hit {
			t.Errorf("4-way cache evicted %#x while holding only 4 conflicting blocks", a)
		}
	}
	// A fifth conflicting block evicts the LRU (0x0000 after re-touch order).
	c.Access(0x8000, false)
	if got := c.Stats().Misses; got != 5 {
		t.Errorf("misses = %d, want 5", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{SizeBytes: 8192, Ways: 4, LineBytes: 16}
	c := MustConfigurable(cfg)
	a := []uint32{0x0000, 0x2000, 0x4000, 0x6000}
	for _, x := range a {
		c.Access(x, false)
	}
	c.Access(a[0], false) // make a[0] MRU; LRU is now a[1]
	c.Access(0x8000, false)
	if c.Contains(a[1]) {
		t.Error("LRU victim a[1] survived")
	}
	if !c.Contains(a[0]) {
		t.Error("MRU block a[0] was evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := MustConfigurable(MinConfig())
	c.Access(0x0000, true)  // dirty
	c.Access(0x0800, false) // evicts dirty block
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	c.Access(0x0000, false) // evict clean block
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("clean eviction caused writeback (got %d)", got)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := MustConfigurable(MinConfig())
	c.Access(0x0000, false) // clean fill
	c.Access(0x0000, true)  // write hit -> dirty
	c.Access(0x0800, false) // evict
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("write-hit dirty line not written back (writebacks=%d)", got)
	}
}

// Paper §3.3: increasing associativity turns no hit into a miss.
func TestAssociativityIncreasePreservesHits(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 1, LineBytes: 16})
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint32, 400)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1 << 16))
		c.Access(addrs[i], rng.Intn(4) == 0)
	}
	var present []uint32
	for _, a := range addrs {
		if c.Contains(a) {
			present = append(present, a)
		}
	}
	for _, ways := range []int{2, 4} {
		if err := c.SetConfig(Config{SizeBytes: 8192, Ways: ways, LineBytes: 16}); err != nil {
			t.Fatalf("SetConfig(%d ways): %v", ways, err)
		}
		for _, a := range present {
			if !c.Contains(a) {
				t.Fatalf("block %#x hit at lower associativity but missed at %d ways", a, ways)
			}
		}
	}
	if got := c.Stats().SettleWritebacks; got != 0 {
		t.Errorf("associativity increase caused %d settle writebacks, want 0", got)
	}
}

// Paper §3.3: increasing size may add misses but needs no writebacks.
func TestSizeIncreaseNeedsNoWriteback(t *testing.T) {
	c := MustConfigurable(MinConfig())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		c.Access(uint32(rng.Intn(1<<15)), rng.Intn(3) == 0)
	}
	before := c.Stats().Writebacks
	if err := c.SetConfig(Config{SizeBytes: 4096, Ways: 1, LineBytes: 16}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetConfig(Config{SizeBytes: 8192, Ways: 1, LineBytes: 16}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Writebacks != before || st.SettleWritebacks != 0 {
		t.Errorf("size growth forced writebacks: %+v", st)
	}
}

func TestShrinkRequiresAllowShrink(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 1, LineBytes: 16})
	if err := c.SetConfig(MinConfig()); err == nil {
		t.Fatal("shrink transition allowed without AllowShrink")
	}
	c.AllowShrink = true
	if err := c.SetConfig(MinConfig()); err != nil {
		t.Fatalf("shrink with AllowShrink: %v", err)
	}
}

func TestShrinkChargesSettleWritebacks(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 1, LineBytes: 16})
	c.AllowShrink = true
	// Dirty one block in each bank (banks selected by addr bits 12:11).
	for b := uint32(0); b < 4; b++ {
		c.Access(b<<11, true)
	}
	if err := c.SetConfig(MinConfig()); err != nil {
		t.Fatal(err)
	}
	// Banks 1..3 shut down; their dirty lines must settle.
	if got := c.Stats().SettleWritebacks; got != 3 {
		t.Errorf("settle writebacks = %d, want 3", got)
	}
	// Blocks in deactivated banks are gone.
	for b := uint32(1); b < 4; b++ {
		if c.Contains(b << 11) {
			t.Errorf("block in shut-down bank %d still present", b)
		}
	}
}

func TestLineSizeChangePreservesContents(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 2, LineBytes: 16})
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint32, 200)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1 << 14))
		c.Access(addrs[i], false)
	}
	var present []uint32
	for _, a := range addrs {
		if c.Contains(a) {
			present = append(present, a)
		}
	}
	for _, line := range []int{32, 64, 16} {
		if err := c.SetConfig(Config{SizeBytes: 8192, Ways: 2, LineBytes: line}); err != nil {
			t.Fatal(err)
		}
		for _, a := range present {
			if !c.Contains(a) {
				t.Fatalf("line-size change to %d B lost block %#x (physical line is 16 B; §3.3 says no extra misses)", line, a)
			}
		}
	}
}

func TestStrandedDirtyCountedOnGrowth(t *testing.T) {
	c := MustConfigurable(MinConfig())
	// Dirty a block whose bank-select bits are nonzero at 8 KB 1-way.
	c.Access(0x1800, true) // bits 12:11 = 3 -> bank 3 at 8 KB, bank 0 at 2 KB
	if err := c.SetConfig(Config{SizeBytes: 8192, Ways: 1, LineBytes: 16}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().StrandedDirty; got != 1 {
		t.Errorf("stranded dirty = %d, want 1", got)
	}
	// The stranded block is unmapped and therefore misses.
	if c.Contains(0x1800) {
		t.Error("block in bank 0 still mapped after growth moved its home to bank 3")
	}
}

func TestFlushWritesBackAllDirty(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 4, LineBytes: 16})
	for i := uint32(0); i < 50; i++ {
		c.Access(i*16, true)
	}
	before := c.Stats().Writebacks
	if n := c.DirtyLines(); n != 50 {
		t.Fatalf("dirty lines = %d, want 50", n)
	}
	c.Flush()
	if got := c.Stats().Writebacks - before; got != 50 {
		t.Errorf("flush wrote back %d lines, want 50", got)
	}
	if c.Contains(0) {
		t.Error("flush left contents")
	}
}

func TestWayPredictionMRUBehaviour(t *testing.T) {
	cfg := Config{SizeBytes: 8192, Ways: 4, LineBytes: 16, WayPredict: true}
	c := MustConfigurable(cfg)
	c.Access(0x0000, false) // miss, trains predictor
	for i := 0; i < 10; i++ {
		r := c.Access(0x0000, false)
		if !r.Hit || !r.PredFirstProbeHit || r.WaysProbed != 1 || r.ExtraLatency != 0 {
			t.Fatalf("repeat access %d: %+v, want 1-way predicted hit", i, r)
		}
	}
	// Touch a conflicting block in another way, then return: mispredict.
	c.Access(0x2000, false)
	c.Access(0x2000, false) // predictor now points at 0x2000's way
	r := c.Access(0x0000, false)
	if !r.Hit || r.PredFirstProbeHit || r.ExtraLatency != 1 {
		t.Fatalf("return access = %+v, want mispredicted hit with 1 extra cycle", r)
	}
	st := c.Stats()
	if st.PredHits == 0 || st.PredMisses == 0 {
		t.Errorf("prediction counters not both exercised: %+v", st)
	}
}

func TestWayPredictionDisabledProbesAllWays(t *testing.T) {
	c := MustConfigurable(Config{SizeBytes: 8192, Ways: 4, LineBytes: 16})
	c.Access(0x0000, false)
	r := c.Access(0x0000, false)
	if r.WaysProbed != 4 {
		t.Errorf("unpredicted 4-way access probed %d ways, want 4", r.WaysProbed)
	}
	if st := c.Stats(); st.PredHits+st.PredMisses != 0 {
		t.Errorf("prediction counters moved with prediction off: %+v", st)
	}
}

func TestSetConfigNoOpAndInvalid(t *testing.T) {
	c := MustConfigurable(MinConfig())
	if err := c.SetConfig(MinConfig()); err != nil {
		t.Fatalf("no-op SetConfig: %v", err)
	}
	if got := c.Stats().Reconfigurations; got != 0 {
		t.Errorf("no-op transition counted as reconfiguration")
	}
	if err := c.SetConfig(Config{SizeBytes: 2048, Ways: 4, LineBytes: 16}); err == nil {
		t.Error("invalid config accepted")
	}
}

// eightBank is a larger-than-paper geometry: eight 4 KB banks (4-32 KB, up
// to 8 ways, lines to 128 B).
func eightBank() Geometry { return Geometry{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128} }

// Property: hits+misses == accesses, and a hit never fills sublines, on the
// paper's geometry and a larger one.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(geo Geometry) func(seed int64, cfgIdx uint) bool {
		all := geo.Configs()
		return func(seed int64, cfgIdx uint) bool {
			c := mustGeometry(t, geo, all[cfgIdx%uint(len(all))])
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				r := c.Access(uint32(rng.Intn(4*geo.MaxSizeBytes())), rng.Intn(4) == 0)
				if r.Hit && r.SublinesFilled != 0 {
					return false
				}
				if !r.Hit && r.SublinesFilled == 0 {
					return false
				}
			}
			st := c.Stats()
			return st.Hits+st.Misses == st.Accesses
		}
	}
	for _, geo := range []Geometry{FourBank(), eightBank()} {
		if err := quick.Check(f(geo), &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
			t.Errorf("%+v: %v", geo, err)
		}
	}
}

// Property: at 16 B lines every size/assoc combo of the configurable cache
// behaves identically (hits, misses, writebacks) to a conventional
// set-associative LRU cache of the same geometry. This pins the bank/row
// mapping of the ISCA'03 design to the textbook model it must implement.
func TestQuickEquivalenceWithGenericAt16B(t *testing.T) {
	combos := []Config{
		{2048, 1, 16, false},
		{4096, 1, 16, false},
		{4096, 2, 16, false},
		{8192, 1, 16, false},
		{8192, 2, 16, false},
		{8192, 4, 16, false},
	}
	f := func(seed int64, comboIdx uint) bool {
		cfg := combos[comboIdx%uint(len(combos))]
		cc := MustConfigurable(cfg)
		gc := MustGeneric(GenericConfig{SizeBytes: cfg.SizeBytes, Ways: cfg.Ways, LineBytes: 16})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 600; i++ {
			addr := uint32(rng.Intn(1 << 16))
			write := rng.Intn(4) == 0
			rc := cc.Access(addr, write)
			rg := gc.Access(addr, write)
			if rc.Hit != rg.Hit || rc.Writebacks != rg.Writebacks {
				return false
			}
		}
		sc, sg := cc.Stats(), gc.Stats()
		return sc.Misses == sg.Misses && sc.Writebacks == sg.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// Property: way prediction never changes hit/miss behaviour, only probe
// counts and latency (§3.3: prediction costs energy/cycles, not correctness).
func TestQuickWayPredictionIsBehaviourNeutral(t *testing.T) {
	f := func(seed int64) bool {
		base := Config{SizeBytes: 8192, Ways: 4, LineBytes: 32}
		pred := base
		pred.WayPredict = true
		a := MustConfigurable(base)
		b := MustConfigurable(pred)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			addr := uint32(rng.Intn(1 << 15))
			write := rng.Intn(4) == 0
			if a.Access(addr, write).Hit != b.Access(addr, write).Hit {
				return false
			}
		}
		sa, sb := a.Stats(), b.Stats()
		return sa.Misses == sb.Misses && sa.Writebacks == sb.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// Property: an arbitrary growth-only reconfiguration walk keeps the
// counters coherent and never makes Contains lie: any address reported
// present must hit on the next access. Checked on the paper's geometry and
// a larger one.
func TestQuickGrowthWalkInvariants(t *testing.T) {
	f := func(geo Geometry) func(seed int64) bool {
		growthOf := func(c Config) []Config {
			var out []Config
			for _, n := range geo.Configs() {
				if c.Grows(n) && n != c {
					out = append(out, n)
				}
			}
			return out
		}
		span := 4 * geo.MaxSizeBytes()
		return func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := mustGeometry(t, geo, geo.MinConfig())
			for step := 0; step < 6; step++ {
				for i := 0; i < 300; i++ {
					c.Access(uint32(rng.Intn(span)), rng.Intn(4) == 0)
				}
				// Presence must be truthful.
				for i := 0; i < 20; i++ {
					a := uint32(rng.Intn(span))
					if c.Contains(a) && !c.Access(a, false).Hit {
						return false
					}
				}
				st := c.Stats()
				if st.Hits+st.Misses != st.Accesses || st.SettleWritebacks != 0 {
					return false
				}
				next := growthOf(c.Config())
				if len(next) == 0 {
					break
				}
				if err := c.SetConfig(next[rng.Intn(len(next))]); err != nil {
					return false
				}
			}
			return true
		}
	}
	for _, geo := range []Geometry{FourBank(), eightBank()} {
		if err := quick.Check(f(geo), &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(29))}); err != nil {
			t.Errorf("%+v: %v", geo, err)
		}
	}
}

// Access allocates nothing, on the paper's geometry and a larger one, with
// way prediction and line concatenation on.
func TestAccessAllocatesNothing(t *testing.T) {
	for _, geo := range []Geometry{FourBank(), eightBank()} {
		c := mustGeometry(t, geo, Config{SizeBytes: geo.MaxSizeBytes(), Ways: 2, LineBytes: 64, WayPredict: true})
		var addr uint32
		if n := testing.AllocsPerRun(1000, func() {
			addr = addr*1664525 + 1013904223
			c.Access(addr%uint32(4*geo.MaxSizeBytes()), addr&8 == 0)
		}); n != 0 {
			t.Errorf("%+v: Access allocates %v times per call", geo, n)
		}
	}
}
