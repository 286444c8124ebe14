package engine

import (
	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/fastsim"
)

// Configurable is the model of the paper's four-bank configurable cache
// priced with the calibrated Equation 1 parameters — the Table 1 replay
// methodology (full-benchmark simulation per configuration, drain included).
// FastBuild carries the fastsim kernel, bit-identical by the differential
// oracle, which serves single evaluations. FusedBuild carries the
// single-pass 27-configuration kernel, held to the same oracle, which
// serves every batch request of a default engine.
func Configurable(p *energy.Params) Model[cache.Config] {
	return Model[cache.Config]{
		Build:      func(cfg cache.Config) Simulator { return cache.MustConfigurable(cfg) },
		FastBuild:  func(cfg cache.Config) Simulator { return fastsim.Must(cfg) },
		FusedBuild: func() FusedReplayer[cache.Config] { return fastsim.NewFused() },
		Price:      p.Evaluate,
	}
}

// Scalable is the model of the configurable cache on an arbitrary geometry
// priced by Equation 1 on that geometry — the §3.4 larger-cache study. On
// cache.FourBank() its prices equal Configurable's bit for bit. It has no
// fast kernel; replays always use the reference simulator.
func Scalable(geo cache.Geometry, p *energy.Params) Model[cache.Config] {
	return Model[cache.Config]{
		Build: func(cfg cache.Config) Simulator {
			c, err := cache.NewConfigurableGeometry(geo, cfg)
			if err != nil {
				panic(err)
			}
			return c
		},
		Price: func(cfg cache.Config, st cache.Stats) energy.Breakdown {
			return p.EvaluateOn(geo, cfg, st)
		},
	}
}

// Generic is the model of a conventional set-associative cache priced with
// the generic Equation 1 terms — the Figure 2 sweep and multilevel L2.
// FastBuild carries the fastsim generic kernel (oracle-enforced
// bit-identical, with a specialised direct-mapped loop for the Figure 2
// geometries).
func Generic(p *energy.Params) Model[cache.GenericConfig] {
	return Model[cache.GenericConfig]{
		Build:     func(cfg cache.GenericConfig) Simulator { return cache.MustGeneric(cfg) },
		FastBuild: func(cfg cache.GenericConfig) Simulator { return fastsim.MustGeneric(cfg) },
		Price:     p.GenericEvaluate,
	}
}
