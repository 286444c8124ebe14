package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/faults"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// The chaos soak: kill the tuning daemon at seeded random points mid-run —
// optionally corrupting its newest checkpoint while it is down, and with
// trace and counter-readout faults armed throughout — restart it from its
// checkpoint directory each time, and check the whole decision history
// (every settle, re-tune, watchdog event, and the final configuration) is
// bit-identical to a daemon that was never killed. This is the
// crash-equivalence property the checkpoint/resume machinery exists to
// provide: process death costs redone work, never a different answer.

// ChaosOptions parameterises one soak trial.
type ChaosOptions struct {
	// Bench is the workload profile whose data stream feeds the daemon.
	Bench string
	// N is the trace length generated (the daemon sees the data subset).
	N int
	// Window is the measurement window.
	Window uint64
	// Seed roots every random decision: kill points, trace corruption,
	// meter glitches. A trial is a pure function of its options.
	Seed uint64
	// Kills is the number of kill/restart cycles (default 3).
	Kills int
	// Dir is the checkpoint directory (required; the trial owns it).
	Dir string
	// CheckpointEvery/Keep configure the store (defaults 1 and 4 — the
	// soak checkpoints aggressively to exercise the machinery).
	CheckpointEvery uint64
	Keep            int
	// TraceFaultRate corrupts the reference stream up front (bit flips at
	// this rate, drops and duplicates at half), identically for the
	// baseline and the killed run.
	TraceFaultRate float64
	// MeterNoiseRate / MeterStuckRate arm the deterministic readout-fault
	// meter (faults.StatsMeter) on both runs.
	MeterNoiseRate float64
	MeterStuckRate float64
	// PhaseThreshold and WatchdogWindows pass through to the daemon.
	PhaseThreshold  float64
	WatchdogWindows uint64
	// CorruptHead flips a byte in the newest checkpoint generation before
	// each restart (only when an older generation exists to fall back
	// to), verifying recovery survives bit rot at the head.
	CorruptHead bool
	// Rec, when non-nil, receives the killed run's telemetry (the
	// baseline stays silent). Recording must be inert: the trial's
	// verdict is unchanged by arming it, which is exactly what the
	// telemetry-inertness tests soak.
	Rec obs.Recorder
}

// ChaosOutcome reports one soak trial.
type ChaosOutcome struct {
	// KillsAt are the stream positions at which the daemon was killed.
	KillsAt []uint64
	// ResumePoints are the consumed counts right after each restart: how
	// far back the checkpoint rewound (0 means no checkpoint existed yet
	// and the daemon restarted from scratch).
	ResumePoints []uint64
	// Recovered counts restarts that resumed from a checkpoint.
	Recovered int
	// HeadCorruptions counts checkpoint files deliberately corrupted.
	HeadCorruptions int
	// BaselineEvents/ChaosEvents are the two decision histories.
	BaselineEvents, ChaosEvents []checkpoint.Event
	// BaselineConfig/ChaosConfig are the final cache configurations.
	BaselineConfig, ChaosConfig cache.Config
	// Equivalent is the verdict; Mismatch describes the first divergence.
	Equivalent bool
	Mismatch   string
}

// ChaosSoak runs one kill/restart soak trial and compares it against the
// uninterrupted baseline.
func ChaosSoak(opt ChaosOptions) (*ChaosOutcome, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("chaos: Dir is required")
	}
	if opt.Kills == 0 {
		opt.Kills = 3
	}
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 1
	}
	if opt.Keep == 0 {
		opt.Keep = 4
	}
	prof, ok := workload.ByName(opt.Bench)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown benchmark %q", opt.Bench)
	}
	_, accs := trace.Split(trace.NewSliceSource(prof.Generate(opt.N)))
	if opt.TraceFaultRate > 0 {
		// Corrupt the stream once, up front: the baseline and the killed
		// run must disagree about nothing but process lifetime.
		accs = faults.Trace{
			Seed:        faults.Derive(opt.Seed, "chaos-trace"),
			BitFlipRate: opt.TraceFaultRate,
			DropRate:    opt.TraceFaultRate / 2,
			DupRate:     opt.TraceFaultRate / 2,
		}.Apply(accs)
	}
	var meter func(cache.Config, cache.Stats) cache.Stats
	if opt.MeterNoiseRate > 0 || opt.MeterStuckRate > 0 {
		meter = faults.StatsMeter(faults.Derive(opt.Seed, "chaos-meter"),
			opt.MeterNoiseRate, 0, opt.MeterStuckRate)
	}
	mkOpts := func(dir string) daemon.Options {
		o := daemon.Options{
			Window:          opt.Window,
			Dir:             dir,
			CheckpointEvery: opt.CheckpointEvery,
			Keep:            opt.Keep,
			PhaseThreshold:  opt.PhaseThreshold,
			WatchdogWindows: opt.WatchdogWindows,
			Meter:           meter,
		}
		if dir != "" {
			// Only the killed run is observed; the baseline stays silent
			// so the comparison also pins that recording is inert.
			o.Rec = opt.Rec
		}
		return o
	}

	// The uninterrupted baseline, no persistence.
	base, err := daemon.New(mkOpts(""))
	if err != nil {
		return nil, err
	}
	if err := feed(base, accs, uint64(len(accs))); err != nil {
		return nil, err
	}

	out := &ChaosOutcome{
		BaselineEvents: base.Events(),
		BaselineConfig: base.Config(),
	}

	// Draw distinct kill points, sorted. The first is forced before the
	// baseline's first settle so every trial kills a search mid-sweep —
	// the hardest state to resume — and the rest land anywhere.
	r := faults.NewRand(faults.Derive(opt.Seed, "chaos-kill"))
	firstSettle := uint64(len(accs))
	if len(out.BaselineEvents) > 0 {
		firstSettle = out.BaselineEvents[0].At
	}
	seen := map[uint64]bool{}
	for len(out.KillsAt) < opt.Kills {
		var k uint64
		if len(out.KillsAt) == 0 {
			k = 1 + uint64(r.Intn(int(firstSettle)-1))
		} else {
			k = 1 + uint64(r.Intn(len(accs)-1))
		}
		if !seen[k] {
			seen[k] = true
			out.KillsAt = append(out.KillsAt, k)
		}
	}
	sort.Slice(out.KillsAt, func(i, j int) bool { return out.KillsAt[i] < out.KillsAt[j] })

	// The chaos run: feed to each kill point, drop the daemon cold,
	// optionally rot the newest checkpoint, restart, continue.
	d, err := daemon.New(mkOpts(opt.Dir))
	if err != nil {
		return nil, err
	}
	for _, k := range out.KillsAt {
		if err := feed(d, accs, k); err != nil {
			return nil, err
		}
		if opt.CorruptHead {
			n, err := corruptNewestCheckpoint(opt.Dir)
			if err != nil {
				return nil, err
			}
			out.HeadCorruptions += n
		}
		if d, err = daemon.New(mkOpts(opt.Dir)); err != nil {
			return nil, err
		}
		out.ResumePoints = append(out.ResumePoints, d.Consumed())
		if d.Recovered() {
			out.Recovered++
		}
		if d.Consumed() > k {
			return nil, fmt.Errorf("chaos: restart resumed at %d, past the kill point %d", d.Consumed(), k)
		}
	}
	if err := feed(d, accs, uint64(len(accs))); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	out.ChaosEvents = d.Events()
	out.ChaosConfig = d.Config()

	out.Equivalent, out.Mismatch = compareRuns(out)
	return out, nil
}

// feed advances d to absolute stream position upto (d.Consumed() is the
// index of the next access, which is what makes resuming a matter of
// indexing back into the same slice).
func feed(d *daemon.Daemon, accs []trace.Access, upto uint64) error {
	for d.Consumed() < upto {
		a := accs[d.Consumed()]
		if err := d.Step(a.Addr, a.IsWrite()); err != nil {
			return err
		}
	}
	return nil
}

// compareRuns checks the two decision histories and final states match
// exactly.
func compareRuns(out *ChaosOutcome) (bool, string) {
	if len(out.BaselineEvents) != len(out.ChaosEvents) {
		return false, fmt.Sprintf("baseline made %d decisions, chaos run %d", len(out.BaselineEvents), len(out.ChaosEvents))
	}
	for i := range out.BaselineEvents {
		if out.BaselineEvents[i] != out.ChaosEvents[i] {
			return false, fmt.Sprintf("decision %d: baseline %+v, chaos %+v", i, out.BaselineEvents[i], out.ChaosEvents[i])
		}
	}
	if out.BaselineConfig != out.ChaosConfig {
		return false, fmt.Sprintf("final config: baseline %v, chaos %v", out.BaselineConfig, out.ChaosConfig)
	}
	return true, ""
}

// corruptNewestCheckpoint flips a byte in the newest checkpoint generation,
// provided an older generation exists to fall back to (corrupting the only
// generation would legitimately force a from-scratch restart, which is not
// the property under test). Returns how many files were corrupted (0 or 1).
func corruptNewestCheckpoint(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.stck"))
	if err != nil {
		return 0, err
	}
	if len(names) < 2 {
		return 0, nil
	}
	// Zero-padded generation numbers sort lexicographically.
	sort.Strings(names)
	head := names[len(names)-1]
	b, err := os.ReadFile(head)
	if err != nil {
		return 0, err
	}
	b[len(b)/2] ^= 0x55
	if err := os.WriteFile(head, b, 0o644); err != nil {
		return 0, err
	}
	return 1, nil
}
