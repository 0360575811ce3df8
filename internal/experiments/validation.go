// Package experiments contains one driver per table and figure in the
// paper's evaluation, plus the model-vs-simulation validation study of
// Section 3.3. Simulation-backed drivers (Figures 3–5) run the
// full-system simulator across the mapping suite; model-backed drivers
// (Figures 6–8, Table 1) evaluate the combined model.
//
// Every study has a config struct with a Default*Config constructor,
// a Run* function and a plain-data result. The simulation studies
// (validation, replay fit, tolerance, gainsim, gainscale) take a
// context, lay the study out as a grid of machine runs and hand it to
// internal/engine for parallel execution; results come back in grid
// order regardless of worker scheduling, so output is byte-identical
// at any worker count. The model-only studies (Figures 6–8, Table 1,
// and the UCL, contention and dimension extensions) take only their
// config and evaluate their points in a plain loop: each point is one
// or two solves of about a microsecond, which a worker pool only
// slows down. internal/report renders the results as the rows and
// series the paper reports, and bench_test.go regenerates them as
// benchmarks.
package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/stats"
	"locality/internal/topology"
)

// ValidationConfig controls the simulation study used for Figures 3–5.
type ValidationConfig struct {
	// Exec selects the worker count and progress stream for the grid.
	engine.Exec
	// Radix and Dims define the machine (8 and 2 in the paper).
	Radix, Dims int
	// Contexts lists the hardware context counts to sweep (1, 2, 4).
	Contexts []int
	// Warmup and Window are per-run P-cycle counts.
	Warmup, Window int64
	// Mappings overrides the standard mapping suite (for fast tests).
	Mappings []*mapping.Mapping
}

// DefaultValidationConfig mirrors the paper's experiments: a 64-node
// 8×8 torus, nine mappings spanning d from 1 to just over 6 hops, and
// one, two, and four hardware contexts.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Radix:    8,
		Dims:     2,
		Contexts: []int{1, 2, 4},
		Warmup:   5000,
		Window:   20000,
	}
}

// MappingPoint is one simulation run: a mapping at one context count.
type MappingPoint struct {
	Mapping string
	// D is the mapping's exact average neighbor distance; MeasuredD is
	// the per-message average the simulator observed.
	D, MeasuredD float64
	// Measured quantities (network cycles for message-level, processor
	// cycles for transaction-level).
	Tm, TmModel  float64
	MsgTime      float64 // tm
	MsgRate      float64 // rm
	MsgRateModel float64
	MsgSize      float64 // B
	MsgsPerTxn   float64 // g
	TxnLatency   float64 // Tt
	InterTxnTime float64 // tt
	Utilization  float64
	// TmModelMix and MsgRateModelMix refine the model predictions with
	// the mapping's exact neighbor-distance histogram instead of its
	// mean (core.MixedDistanceNetwork).
	TmModelMix, MsgRateModelMix float64
	// Mix is the distance distribution used for the refined prediction.
	Mix []core.DistanceClass
}

// ContextValidation gathers one context count's mapping sweep and the
// application message curve fitted through it (Figure 3).
type ContextValidation struct {
	P      int
	Points []MappingPoint
	// Fit is the least-squares application message curve Tm = S·tm − K.
	S, K, R2 float64
}

// Validation is the full study: the data behind Figures 3, 4, and 5.
type Validation struct {
	Config ValidationConfig
	Curves []ContextValidation
}

// RunValidation executes the simulation suite on the experiment engine
// and fits the application message curves. Model predictions use the
// fitted curves with the Agarwal network model plus node-channel
// contention — the same procedure the paper uses to draw its model
// lines through the simulator's points. A full paper-scale study is 27
// independent machines, fanned out across the configured workers.
func RunValidation(ctx context.Context, cfg ValidationConfig) (*Validation, error) {
	tor, err := topology.New(cfg.Radix, cfg.Dims)
	if err != nil {
		return nil, err
	}
	maps := cfg.Mappings
	if maps == nil {
		maps = mapping.Suite(tor)
	}
	if len(cfg.Contexts) == 0 {
		return nil, fmt.Errorf("experiments: no context counts configured")
	}
	var cells []engine.Cell[MappingPoint]
	for _, p := range cfg.Contexts {
		for _, m := range maps {
			mc := machine.DefaultConfig(tor, m, p)
			cells = append(cells, engine.Cell[MappingPoint]{
				Key: fmt.Sprintf("validation %s/p=%d", m.Name, p),
				Run: func(ctx context.Context) (MappingPoint, error) {
					return measureCell(ctx, mc, cfg.Warmup, cfg.Window)
				},
			})
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[MappingPoint]{Exec: cfg.Exec})
	points, err := engine.Rows(results)
	if err != nil {
		return nil, err
	}

	out := &Validation{Config: cfg}
	for ci, p := range cfg.Contexts {
		cv, err := fitCurve(p, points[ci*len(maps):(ci+1)*len(maps)], cfg.Dims)
		if err != nil {
			return nil, err
		}
		out.Curves = append(out.Curves, cv)
	}
	return out, nil
}

// measureCell simulates one machine over the measurement protocol and
// gathers its point on the application message curve.
func measureCell(ctx context.Context, mc machine.Config, warmup, window int64) (MappingPoint, error) {
	m, p := mc.Mapping, mc.Contexts
	mach, err := machine.New(mc)
	if err != nil {
		return MappingPoint{}, fmt.Errorf("experiments: building machine for %s p=%d: %w", m.Name, p, err)
	}
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: warmup, Window: window})
	if err != nil {
		return MappingPoint{}, fmt.Errorf("experiments: measuring %s p=%d: %w", m.Name, p, err)
	}
	met := res.Metrics
	if met.Messages == 0 {
		return MappingPoint{}, fmt.Errorf("experiments: no traffic measured for %s p=%d", m.Name, p)
	}
	mix, err := core.NeighborDistanceMix(m.DistanceHistogram(mc.Topo))
	if err != nil {
		return MappingPoint{}, fmt.Errorf("experiments: histogram for %s: %w", m.Name, err)
	}
	return MappingPoint{
		Mapping:      m.Name,
		Mix:          mix,
		D:            m.AvgDistance(mc.Topo),
		MeasuredD:    met.AvgDistance,
		Tm:           met.MsgLatency,
		MsgTime:      met.InterMsgTime,
		MsgRate:      met.MsgRate,
		MsgSize:      met.MsgSize,
		MsgsPerTxn:   met.MsgsPerTxn,
		TxnLatency:   met.TxnLatency,
		InterTxnTime: met.InterTxnTime,
		Utilization:  met.ChannelUtilization,
	}, nil
}

// fitCurve fits the application message curve Tm = S·tm − K through
// one context count's mapping sweep, then solves the combined model at
// each point's distance with the fitted curve and the measured average
// message size.
func fitCurve(p int, points []MappingPoint, dims int) (ContextValidation, error) {
	cv := ContextValidation{P: p, Points: points}
	var xs, ys []float64
	for _, pt := range points {
		xs = append(xs, pt.MsgTime)
		ys = append(ys, pt.Tm)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return cv, fmt.Errorf("experiments: fitting message curve for p=%d: %w", p, err)
	}
	cv.S, cv.K, cv.R2 = fit.Slope, -fit.Intercept, fit.R2
	curve := core.NodeCurve{S: cv.S, K: cv.K}
	for i := range cv.Points {
		pt := &cv.Points[i]
		net := core.NetworkModel{
			Dims:                  dims,
			MsgSize:               pt.MsgSize,
			NodeChannelContention: true,
		}
		sol, err := core.SolveWithCurve(curve, net, pt.D)
		if err != nil {
			return cv, fmt.Errorf("experiments: model solve at d=%g p=%d: %w", pt.D, p, err)
		}
		pt.MsgRateModel = sol.MsgRate
		pt.TmModel = sol.MsgLatency

		// Refined prediction: the exact neighbor-distance histogram in
		// place of the single mean distance.
		mixNet := core.MixedDistanceNetwork{Net: net, Mix: pt.Mix}
		rate, tm, err := core.SolveOnFabric(curve, mixNet, 0)
		if err != nil {
			return cv, fmt.Errorf("experiments: mixture solve for %s p=%d: %w", pt.Mapping, p, err)
		}
		pt.MsgRateModelMix = rate
		pt.TmModelMix = tm
	}
	return cv, nil
}

// RateErrors returns the relative errors |model−sim|/sim on message
// rate across all points of one curve (Figure 4's agreement metric).
func (cv ContextValidation) RateErrors() []float64 {
	out := make([]float64, len(cv.Points))
	for i, pt := range cv.Points {
		out[i] = abs(pt.MsgRateModel-pt.MsgRate) / pt.MsgRate
	}
	return out
}

// LatencyErrors returns the absolute errors |model−sim| on message
// latency in network cycles (Figure 5's agreement metric).
func (cv ContextValidation) LatencyErrors() []float64 {
	out := make([]float64, len(cv.Points))
	for i, pt := range cv.Points {
		out[i] = abs(pt.TmModel - pt.Tm)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
