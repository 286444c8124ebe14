package main

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"selftune/internal/workload"
)

const (
	fleetSteady      = "fleet-steady"
	fleetPhased      = "fleet-phased"
	offlineReproduce = "offline-reproduce"

	// wireChunk is the data-frame payload size the clients stream with
	// (RetryClient's default), and the chunk the isolated decode replays at.
	wireChunk = 64 << 10
	// shards and clients: one process drives the load with at most nproc
	// client connections and shard workers (2 on the reference machine).
	maxParallel = 2
)

// config is one run's workload shape. The sizes are fixed per workload so
// that two runs with different seeds do the same amount of work.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string

	// Fleet workloads: each round is a fresh fleet fed roundSessions
	// distinct tenant streams; rounds repeat until the measured time
	// reaches seconds, and at least minRounds run.
	roundSessions int
	sessionLen    int // steady: accesses per session; phased: per segment
	segments      int // phased: segments per session
	warmLen       int // accesses per warm-up session (two per round)
	minRounds     int

	// Offline workload: accesses per Table 1 profile stream and for the
	// Figure 2 parser-like stream; reps repeat until seconds, at least
	// minRounds.
	offlineLen int
	fig2Len    int

	// Traced run: the isolated layer replays stop after layerCap accesses;
	// engine and tuner replays use engineStreams streams of at most
	// engineLen accesses per I or D half.
	layerCap      int
	engineStreams int
	engineLen     int

	// corruptRef perturbs one solo reference so the output check must fail
	// (the benchmark's own test uses it).
	corruptRef bool
}

func newConfig(workload string, seed int64, seconds float64, traced bool, root string) (config, error) {
	c := config{
		workload:      workload,
		seed:          seed,
		seconds:       seconds,
		traced:        traced,
		root:          root,
		warmLen:       200_000,
		offlineLen:    400_000,
		fig2Len:       400_000,
		layerCap:      8_000_000,
		engineStreams: 2,
		engineLen:     300_000,
	}
	if seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	switch workload {
	case fleetSteady:
		c.roundSessions, c.sessionLen, c.segments, c.minRounds = 40, 1_000_000, 1, 3
	case fleetPhased:
		c.roundSessions, c.sessionLen, c.segments, c.minRounds = 64, 100_000, 4, 3
	case offlineReproduce:
		c.minRounds = 5 // 5 reps x 20 timed items = 100 latency samples
	default:
		return c, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, fleetSteady, fleetPhased, offlineReproduce)
	}
	return c, nil
}

// sizes is the workload size record printed in the stamp.
func (c config) sizes() map[string]int {
	if c.workload == offlineReproduce {
		return map[string]int{"profiles": len(workload.Profiles()), "profile_accesses": c.offlineLen,
			"figure2_accesses": c.fig2Len, "min_reps": c.minRounds, "workers": 1}
	}
	return map[string]int{"round_sessions": c.roundSessions, "session_accesses": c.sessionLen * c.segments,
		"segments": c.segments, "warmup_sessions_per_round": maxParallel, "warmup_accesses": c.warmLen,
		"min_rounds": c.minRounds, "clients": maxParallel, "shards": maxParallel}
}

// parallelism is how many goroutines set-up and reference work fan out to.
func parallelism() int { return min(runtime.GOMAXPROCS(0), maxParallel) }

// derive makes a per-item seed from the run seed and the item's
// coordinates, so every generated stream differs from every other.
func derive(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() >> 1)
}
