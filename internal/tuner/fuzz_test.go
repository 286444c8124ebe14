package tuner

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"selftune/internal/cache"
)

var errFuzzReplay = errors.New("fuzz: replay failed")

// fuzzReading decodes one fuzz byte into a reading of cfg: the top three
// codes are the implausible shapes Plausible rejects (a stuck all-zero
// latch, a failed replay, a non-finite energy); every other byte is a
// plausible synthetic energy.
func fuzzReading(cfg cache.Config, b byte) EvalResult {
	switch b {
	case 255:
		return EvalResult{Cfg: cfg}
	case 254:
		return EvalResult{Cfg: cfg, Err: errFuzzReplay}
	case 253:
		return EvalResult{Cfg: cfg, Energy: math.NaN()}
	}
	return EvalResult{Cfg: cfg, Energy: float64(b) + 1}
}

// growthStep reports whether to differs from from in exactly one parameter,
// moved in the flush-free growth direction.
func growthStep(from, to cache.Config) bool {
	moved := 0
	for _, d := range []struct{ a, b int }{
		{from.SizeBytes, to.SizeBytes},
		{from.LineBytes, to.LineBytes},
		{from.Ways, to.Ways},
	} {
		if d.b < d.a {
			return false
		}
		if d.b > d.a {
			moved++
		}
	}
	if from.WayPredict != to.WayPredict {
		if !to.WayPredict {
			return false
		}
		moved++
	}
	return moved == 1
}

// FuzzSearchMachine drives the Figure 6 step machine with arbitrary reading
// sequences — implausible ones included — inside an arbitrary budget and
// warm start, and checks the machine's contract: every request lies in the
// budget-constrained space; each request is a one-parameter growth step
// from the incumbent or, after an implausible reading, a repeat of the same
// configuration; the search settles within Σ|values| windows plus its
// re-measures; and a fresh machine fed the transcript reproduces the result.
func FuzzSearchMachine(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint16(4096), uint8(26), []byte{200, 255, 100, 254, 90})
	f.Add(uint16(2048), uint8(0), []byte{253, 253})
	f.Add(uint16(8192), uint8(13), []byte{50, 40, 255, 30, 255, 255})
	f.Fuzz(func(t *testing.T, budget uint16, start uint8, data []byte) {
		base := DefaultSpace()
		space := base.Constrain(int(budget))
		if start > 0 {
			all := cache.AllConfigs()
			space.Start = ClampToBudget(all[int(start)%len(all)], int(budget), base)
		}
		bound := len(space.Sizes) + len(space.Lines) + len(space.Assocs) + 2

		s := newSearch(PaperOrder, space, nil)
		var transcript []EvalResult
		var incumbent EvalResult
		remeasures, implausible := 0, 0
		for {
			cfg, done := s.Next()
			if done {
				break
			}
			if len(transcript) >= bound+remeasures {
				t.Fatalf("search still running after %d windows (%d re-measures, %d values)", len(transcript), remeasures, bound)
			}
			if cfg.Validate() != nil || (budget > 0 && cfg.SizeBytes > int(budget) && cfg.SizeBytes != base.Sizes[0]) {
				t.Fatalf("request %v lies outside the %d B space", cfg, budget)
			}
			switch {
			case implausible > 0:
				if prev := transcript[len(transcript)-1].Cfg; cfg != prev || !s.remeasure {
					t.Fatalf("after an implausible reading of %v the machine requests %v (remeasuring %v)", prev, cfg, s.remeasure)
				}
			case len(transcript) == 0:
				if cfg != space.Start {
					t.Fatalf("first request %v, want the start %v", cfg, space.Start)
				}
			case !growthStep(incumbent.Cfg, cfg):
				t.Fatalf("request %v is not a growth step from the incumbent %v", cfg, incumbent.Cfg)
			}

			var b byte = 250 // past the fuzz input: plausible, never improving
			if i := len(transcript); i < len(data) {
				b = data[i]
			}
			r := fuzzReading(cfg, b)
			transcript = append(transcript, r)
			s.Feed(r)
			if Plausible(r) != nil {
				if implausible++; implausible == 2 {
					break
				}
				remeasures++
				continue
			}
			implausible = 0
			if incumbent.Cfg == (cache.Config{}) || r.Energy < incumbent.Energy {
				incumbent = r
			}
		}
		res := s.Result()
		if _, done := s.Next(); !done {
			t.Fatal("two implausible readings in a row did not end the search")
		}
		if res.Degraded != (implausible == 2) {
			t.Fatalf("degraded %v after %d consecutive implausible readings", res.Degraded, implausible)
		}
		switch {
		case res.Degraded && res.Best.Cfg != SafeConfig():
			t.Fatalf("degraded search settled on %v, want SafeConfig", res.Best.Cfg)
		case !res.Degraded && res.Best != incumbent:
			t.Fatalf("settled on %v, incumbent is %v", res.Best.Cfg, incumbent.Cfg)
		}

		replay := newSearch(PaperOrder, space, nil)
		for i, r := range transcript {
			if cfg, done := replay.Next(); done || cfg != r.Cfg {
				t.Fatalf("replay window %d requests %v (done %v), transcript has %v", i, cfg, done, r.Cfg)
			}
			replay.Feed(r)
		}
		if _, done := replay.Next(); !done {
			t.Fatal("replayed transcript does not settle the search")
		}
		if got := replay.Result(); !reflect.DeepEqual(got, res) {
			t.Fatalf("replay settled on %+v, live machine on %+v", got, res)
		}
	})
}
