package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"selftune/internal/energy"
)

// maxRunTime stops starting new rounds once a run has taken this long, so a
// slow build of the program still ends well inside the 180-second limit.
const maxRunTime = 120 * time.Second

// fleetRoundInputs generates one round's warm-up and timed tenants,
// returning the generation time (part of set-up), and computes their solo
// references outside any timed phase.
func fleetRoundInputs(c config, round int, params *energy.Params) (warm, timed []*tenant, gen time.Duration, err error) {
	t0 := time.Now()
	if warm, err = makeTenants(c, "w", round, maxParallel, c.warmLen); err != nil {
		return nil, nil, 0, err
	}
	if timed, err = makeTenants(c, "t", round, c.roundSessions, c.sessionLen*c.segments); err != nil {
		return nil, nil, 0, err
	}
	gen = time.Since(t0)
	if err := references(append(append([]*tenant(nil), warm...), timed...), params); err != nil {
		return nil, nil, 0, err
	}
	if c.corruptRef && round == 0 {
		timed[0].want.Consumed++
	}
	return warm, timed, gen, nil
}

// runFleet is the end-to-end run of fleet-steady and fleet-phased: rounds of
// fresh fleets over fresh tenant streams until the timed phases add up to
// c.seconds (and at least c.minRounds ran).
func runFleet(c config) (outcome, error) {
	params := energy.DefaultParams()
	var (
		out                            outcome
		setups, walls, rates           []float64
		delivery, misses, energyRatios []float64
		measured                       time.Duration
		start                          = time.Now()
		retried                        int
	)
	for round := 0; round < c.minRounds || measured.Seconds() < c.seconds; round++ {
		if round > 0 && time.Since(start) > maxRunTime {
			break
		}
		warm, timed, gen, err := fleetRoundInputs(c, round, params)
		if err != nil {
			return out, err
		}
		dir := filepath.Join(c.ckptRoot(), fmt.Sprintf("round%d", round))
		st, err := fleetRound(dir, c.seed, warm, timed, false, nil)
		if err != nil {
			return out, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
		retried += st.retried
		measured += st.wall
		out.attempted += st.attempted
		out.failed += st.failed
		setups = append(setups, (gen + st.setup).Seconds())
		walls = append(walls, st.wall.Seconds())
		rates = append(rates, st.ingestPerSecond())
		delivery = append(delivery, st.delivery...)
		misses = append(misses, st.misses...)
		for _, t := range timed {
			energyRatios = append(energyRatios, t.energyRatio)
		}
	}
	if err := os.RemoveAll(c.ckptRoot()); err != nil {
		return out, err
	}
	out.set("ingest_accesses_per_s", median(rates), "1/s")
	out.set("delivery_s_p50", quantile(delivery, 0.5), "s")
	out.set("delivery_s_p90", quantile(delivery, 0.9), "s")
	out.set("reproduce_s", median(walls), "s")
	out.set("setup_s", median(setups), "s")
	out.set("settled_misses_per_window", mean(misses), "count")
	out.set("energy_pct_of_base", 100*mean(energyRatios), "%")
	out.note("rounds", len(rates))
	out.note("delivery_samples", len(delivery))
	out.note("retried_attempts", retried)
	out.note("measured_s", measured.Seconds())
	out.note("round_rates", rates)
	out.note("round_setups", setups)
	return out, nil
}
