package fastsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/fastsim"
	"selftune/internal/trace"
)

// The live-kernel oracle: a Kernel (New, Restore) and the
// reference cache.Configurable are driven side by side through the same
// access stream, interleaved with in-place reconfigurations (growth, shrink,
// the same-config no-op), interval counter resets and a mid-stream
// image round-trip. Every access compares the AccessResult, the counters
// (Reconfigurations, SettleWritebacks and StrandedDirty included) and the
// dirty-line count; every reconfiguration, batch and restore compares the
// whole cache.Image.

const (
	opAccess = iota
	opSetConfig
	opReset
	opRestore
	// opFlush ends the batch in batched runs; per-access runs ignore it.
	opFlush
)

// liveOp is one step of a live differential run.
type liveOp struct {
	kind int
	acc  trace.Access
	cfg  cache.Config
}

// livePair is the kernel under test and its reference twin.
type livePair struct {
	ref  *cache.Configurable
	fast *fastsim.Kernel
}

func (p *livePair) sameCounters(t testing.TB, at int, what string) {
	t.Helper()
	if rs, fs := p.ref.Stats(), p.fast.Stats(); rs != fs {
		t.Fatalf("op %d (%s): stats diverged:\n ref  %+v\n fast %+v", at, what, rs, fs)
	}
	if rd, fd := p.ref.DirtyLines(), p.fast.DirtyLines(); rd != fd {
		t.Fatalf("op %d (%s): dirty lines ref %d fast %d", at, what, rd, fd)
	}
}

func (p *livePair) images(t testing.TB, at int, what string) (cache.Image, cache.Image) {
	t.Helper()
	ri, err := p.ref.Image()
	if err != nil {
		t.Fatalf("op %d (%s): reference image: %v", at, what, err)
	}
	fi, err := p.fast.Image()
	if err != nil {
		t.Fatalf("op %d (%s): kernel image: %v", at, what, err)
	}
	if !reflect.DeepEqual(ri, fi) {
		t.Fatalf("op %d (%s): images diverged:\n ref  cfg %v clock %d stats %+v %d frames\n fast cfg %v clock %d stats %+v %d frames",
			at, what, ri.Cfg, ri.Clock, ri.Stats, len(ri.Frames), fi.Cfg, fi.Clock, fi.Stats, len(fi.Frames))
	}
	return ri, fi
}

func (p *livePair) batch(t testing.TB, at int, accs []trace.Access) {
	t.Helper()
	for _, a := range accs {
		p.ref.Access(a.Addr, a.IsWrite())
	}
	p.fast.ReplayBatch(accs)
	p.sameCounters(t, at, "batch")
	p.images(t, at, "batch")
}

// runLive executes ops on a fresh pair starting in configuration start.
// batched replays each run of consecutive accesses through one
// Kernel.ReplayBatch (the reference stays per-access) instead of per-access
// Kernel.Access calls.
func runLive(t testing.TB, start cache.Config, ops []liveOp, batched bool) {
	t.Helper()
	fast, err := fastsim.New(start)
	if err != nil {
		t.Fatal(err)
	}
	p := &livePair{ref: cache.MustConfigurable(start), fast: fast}
	var pending []trace.Access
	flush := func(at int) {
		if len(pending) > 0 {
			p.batch(t, at, pending)
			pending = pending[:0]
		}
	}
	for i, op := range ops {
		if op.kind == opAccess {
			if batched {
				pending = append(pending, op.acc)
				continue
			}
			a := op.acc
			rr := p.ref.Access(a.Addr, a.IsWrite())
			fr := p.fast.Access(a.Addr, a.IsWrite())
			if rr != fr {
				t.Fatalf("op %d: access %08x %v under %v diverged:\n ref  %+v\n fast %+v", i, a.Addr, a.Kind, p.ref.Config(), rr, fr)
			}
			p.sameCounters(t, i, "access")
			continue
		}
		flush(i)
		switch op.kind {
		case opSetConfig:
			re := p.ref.Reconfigure(op.cfg)
			fe := p.fast.SetConfig(op.cfg)
			if re != nil || fe != nil {
				t.Fatalf("op %d: reconfigure to %v: ref %v, kernel %v", i, op.cfg, re, fe)
			}
			p.sameCounters(t, i, "reconfigure to "+op.cfg.String())
			p.images(t, i, "reconfigure to "+op.cfg.String())
		case opReset:
			p.ref.ResetStats()
			p.fast.ResetStats()
		case opRestore:
			ri, fi := p.images(t, i, "restore")
			ref, err := cache.RestoreConfigurable(ri)
			if err != nil {
				t.Fatalf("op %d: reference restore: %v", i, err)
			}
			if p.fast, err = fastsim.Restore(fi); err != nil {
				t.Fatalf("op %d: kernel restore: %v", i, err)
			}
			p.ref = ref
			p.images(t, i, "after restore")
		}
	}
	flush(len(ops))
	p.sameCounters(t, len(ops), "end")
	p.images(t, len(ops), "end")
}

// randomLiveOps interleaves accs with a seeded reconfiguration schedule:
// roughly every 400 accesses a transition to a uniformly drawn
// configuration (one draw in five re-applies the current one), an
// occasional counter reset, and one image round-trip mid-stream. kinds
// tallies the transitions drawn: growth, shrink, same-size and no-op.
func randomLiveOps(r *rand.Rand, start cache.Config, accs []trace.Access, kinds *[4]int) []liveOp {
	all := cache.AllConfigs()
	cur := start
	ops := make([]liveOp, 0, len(accs)+len(accs)/100)
	for i, a := range accs {
		if r.Intn(400) == 0 {
			next := all[r.Intn(len(all))]
			if r.Intn(5) == 0 {
				next = cur
			}
			switch {
			case next == cur:
				kinds[3]++
			case next.SizeBytes > cur.SizeBytes:
				kinds[0]++
			case next.SizeBytes < cur.SizeBytes:
				kinds[1]++
			default:
				kinds[2]++
			}
			ops = append(ops, liveOp{kind: opSetConfig, cfg: next})
			cur = next
		}
		if r.Intn(3000) == 0 {
			ops = append(ops, liveOp{kind: opReset})
		}
		if i == len(accs)/2 {
			ops = append(ops, liveOp{kind: opRestore})
		}
		ops = append(ops, liveOp{kind: opAccess, acc: a})
	}
	return ops
}

// TestLiveKernelVsReference runs seeded random streams under seeded random
// reconfiguration schedules, per-access and batched.
func TestLiveKernelVsReference(t *testing.T) {
	seeds, n := 16, 20_000
	if testing.Short() {
		seeds, n = 6, 8_000
	}
	if err := fastsim.Must(cache.MinConfig()).SetConfig(cache.Config{SizeBytes: 3000}); err == nil {
		t.Error("SetConfig accepted an invalid configuration")
	}
	all := cache.AllConfigs()
	var kinds [4]int
	for s := int64(1); s <= int64(seeds); s++ {
		r := rand.New(rand.NewSource(s))
		start := all[r.Intn(len(all))]
		ops := randomLiveOps(r, start, randomTrace(100+s, n), &kinds)
		runLive(t, start, ops, false)
		runLive(t, start, ops, true)
	}
	for i, name := range []string{"growth", "shrink", "same-size", "no-op"} {
		if kinds[i] == 0 {
			t.Errorf("schedule drew no %s transition (%v)", name, kinds)
		}
	}
}

// runsTrace draws n accesses in runs of 1–8 to one 16 B block. Half the
// runs pick their block from the first quarter of span bytes, so replacement
// sees both reuse and conflict; kinds are uniform.
func runsTrace(r *rand.Rand, n, span int) []trace.Access {
	accs := make([]trace.Access, 0, n)
	for len(accs) < n {
		lim := span
		if r.Intn(2) == 0 {
			lim /= 4
		}
		base := uint32(r.Intn(lim)) &^ 15
		for k := 1 + r.Intn(8); k > 0 && len(accs) < n; k-- {
			accs = append(accs, trace.Access{Addr: base | uint32(r.Intn(16)), Kind: trace.Kind(r.Intn(3))})
		}
	}
	return accs
}

// accessOps appends an access op for each of accs.
func accessOps(ops []liveOp, accs []trace.Access) []liveOp {
	for _, a := range accs {
		ops = append(ops, liveOp{kind: opAccess, acc: a})
	}
	return ops
}

// TestSingleWayStampsPickVictims: a long single-way phase leaves LRU stamps
// that a reconfiguration to a two- or four-way configuration then reads to
// pick its victims, for every single-way start and multi-way target. The
// stream spans 4× the largest cache, so the multi-way phase's sets fill and
// evict by the stamps the single-way loop wrote.
func TestSingleWayStampsPickVictims(t *testing.T) {
	var singles, multis []cache.Config
	for _, c := range cache.AllConfigs() {
		if c.Ways == 1 {
			singles = append(singles, c)
		} else {
			multis = append(multis, c)
		}
	}
	n := 3000
	if testing.Short() {
		n = 1000
	}
	for i, start := range singles {
		for j, next := range multis {
			r := rand.New(rand.NewSource(int64(i*len(multis) + j)))
			ops := accessOps(nil, runsTrace(r, n, 4*cache.MaxSizeBytes))
			ops = append(ops, liveOp{kind: opSetConfig, cfg: next})
			ops = accessOps(ops, runsTrace(r, n/2, 4*cache.MaxSizeBytes))
			runLive(t, start, ops, true)
		}
	}
}

// TestRunsStraddleBatchesAndReconfiguration: a same-block run continues
// across a batch boundary and across a reconfiguration. The kernel folds the
// run across calls, and a reconfiguration must end it: the block may no
// longer map to the frame that holds it, or that frame may have been
// refilled under a single-way configuration in between.
func TestRunsStraddleBatchesAndReconfiguration(t *testing.T) {
	at := func(addr uint32) liveOp {
		return liveOp{kind: opAccess, acc: trace.Access{Addr: addr, Kind: trace.DataRead}}
	}
	flush := liveOp{kind: opFlush}
	to := func(s string) liveOp {
		cfg, err := cache.ParseConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		return liveOp{kind: opSetConfig, cfg: cfg}
	}
	// Blocks 0x000 and 0x100 share row 0 and address bit 11 (zero): under
	// 8K four-way they fill banks 0 and 1; under 8K two-way they may only
	// live in banks 0 and 2, so the run's frame stops being a candidate.
	const y, x, z = 0x0000, 0x1000, 0x2000
	four := to("8K_4W_16B").cfg
	for name, ops := range map[string][]liveOp{
		"frame no longer a candidate": {at(y), at(x), at(x), flush, at(x), to("8K_2W_16B"), at(x), at(x), flush, at(x)},
		"frame refilled single-way":   {at(x), at(x), flush, to("2K_1W_16B"), at(z), to("8K_4W_16B"), at(x), flush, at(x)},
		"predictor restarts":          {at(y), at(x), at(x), to("8K_4W_16B_P"), at(x), flush, at(x), to("8K_2W_16B_P"), at(x), at(x)},
	} {
		t.Run(name, func(t *testing.T) {
			runLive(t, four, ops, false)
			runLive(t, four, ops, true)
		})
	}
	// Random schedules whose flushes and reconfigurations land inside
	// runs.
	all := cache.AllConfigs()
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ops []liveOp
		for _, a := range runsTrace(r, 6000, 4*cache.MaxSizeBytes) {
			switch r.Intn(60) {
			case 0:
				ops = append(ops, flush)
			case 1:
				ops = append(ops, liveOp{kind: opSetConfig, cfg: all[r.Intn(len(all))]})
			}
			ops = append(ops, liveOp{kind: opAccess, acc: a})
		}
		runLive(t, four, ops, false)
		runLive(t, four, ops, true)
	}
}

// TestRestoreRejectsHostileImages: Restore keeps every validation of
// cache.RestoreConfigurable — each impossible image is refused by both.
func TestRestoreRejectsHostileImages(t *testing.T) {
	good := func() cache.Image {
		k, _ := fastsim.New(cache.BaseConfig())
		k.ReplayBatch(randomTrace(3, 5000))
		img, err := k.Image()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if _, err := fastsim.Restore(good()); err != nil {
		t.Fatalf("valid image refused: %v", err)
	}
	for name, spoil := range map[string]func(*cache.Image){
		"invalid config":    func(img *cache.Image) { img.Cfg.SizeBytes = 3000 },
		"short predictor":   func(img *cache.Image) { img.Pred = img.Pred[:10] },
		"bank out of range": func(img *cache.Image) { img.Frames[0].Bank = cache.NumBanks },
		"negative bank":     func(img *cache.Image) { img.Frames[0].Bank = -1 },
		"row out of range":  func(img *cache.Image) { img.Frames[0].Row = cache.BankRows },
		"block not in row":  func(img *cache.Image) { img.Frames[0].Block++ },
		// Rows match, but no 32-bit address lies in these blocks; the
		// second is the kernel's invalid-frame tag itself.
		"block beyond address space": func(img *cache.Image) { img.Frames[0].Block |= 1 << 31 },
		"invalid-frame block": func(img *cache.Image) {
			img.Frames[0].Block, img.Frames[0].Row = ^uint32(0), cache.BankRows-1
		},
	} {
		img := good()
		spoil(&img)
		if _, err := fastsim.Restore(img); err == nil {
			t.Errorf("%s: kernel restore accepted the image", name)
		}
		if _, err := cache.RestoreConfigurable(img); err == nil {
			t.Errorf("%s: reference restore accepted the image", name)
		}
	}
}

// FuzzLiveKernelVsReference decodes fuzz bytes into a live op stream — 5
// bytes per op: an access (decodeAccesses' encoding) unless the kind byte is
// 0xF0 or above, where 0xF0–0xFC reconfigure to AllConfigs()[byte0 % 27],
// 0xFD resets the counters and 0xFE–0xFF take an image round-trip — and
// runs it per-access and batched against the reference.
func FuzzLiveKernelVsReference(f *testing.F) {
	f.Add(byte(0), []byte{})
	// Fill a 2 KB direct-mapped line dirty, grow to 8 KB four-way, touch
	// the bank-alias twin, then shrink back.
	f.Add(byte(0), []byte{
		0x00, 0x10, 0x00, 0x00, 0x01,
		26, 0, 0, 0, 0xF0,
		0x00, 0x30, 0x00, 0x00, 0x01,
		0, 0, 0, 0, 0xFE,
		0x00, 0x10, 0x00, 0x00, 0x00,
		0, 0, 0, 0, 0xF0,
	})
	all := cache.AllConfigs()
	f.Fuzz(func(t *testing.T, start byte, data []byte) {
		n := len(data) / 5
		if n > 4096 {
			n = 4096
		}
		ops := make([]liveOp, 0, n)
		for i := 0; i < n; i++ {
			b := data[i*5:]
			switch op := b[4]; {
			case op < 0xF0:
				ops = append(ops, liveOp{kind: opAccess, acc: trace.Access{
					Addr: uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24,
					Kind: trace.Kind(op % 3),
				}})
			case op <= 0xFC:
				ops = append(ops, liveOp{kind: opSetConfig, cfg: all[int(b[0])%len(all)]})
			case op == 0xFD:
				ops = append(ops, liveOp{kind: opReset})
			default:
				ops = append(ops, liveOp{kind: opRestore})
			}
		}
		cfg := all[int(start)%len(all)]
		runLive(t, cfg, ops, false)
		runLive(t, cfg, ops, true)
	})
}
