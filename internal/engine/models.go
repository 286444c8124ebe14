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

// Scalable is the model of the generalised N-bank configurable cache priced
// with the geometry-aware model — the §3.4 larger-cache study. It has no
// fast kernel yet; replays always use the reference simulator.
func Scalable(geo cache.Geometry, p *energy.Params) Model[cache.Config] {
	m := energy.ScalableModel{P: p, Geo: geo}
	return Model[cache.Config]{
		Build: func(cfg cache.Config) Simulator { return cache.MustScalable(geo, cfg) },
		Price: m.Evaluate,
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
