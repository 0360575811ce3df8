package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/replay"
	"locality/internal/topology"
	"locality/internal/workload"
)

// ReplayFitConfig drives the trace-replay fitting study: replay one
// recorded reference stream across a mapping sweep, fit the
// application message curve Tm = s·tm − K through the sweep, and
// recover the application parameters (s, Tr+Tc+Tf, c) the paper's
// framework needs — without ever consulting the workload that
// generated the trace.
type ReplayFitConfig struct {
	// Exec selects the worker count and progress stream for the grid.
	engine.Exec
	// Trace is the recorded reference stream. Machine geometry, line
	// size, and the default measurement protocol come from its header.
	Trace *replay.Trace
	// Contexts is the hardware context count to replay with; 0 uses
	// the trace's recorded count.
	Contexts int
	// Warmup and Window override the header's recorded measurement
	// protocol when positive.
	Warmup, Window int64
	// Mappings overrides the standard mapping suite (for fast tests).
	Mappings []*mapping.Mapping
}

// ReplayFit is the study's result: the mapping sweep with its fitted
// curve (the same shape as a validation curve, including combined-
// model predictions at each point), plus the recovered application
// parameters.
type ReplayFit struct {
	// Header echoes the trace the study replayed.
	Header replay.Header
	// Curve is the mapping sweep and fitted message curve; Curve.P is
	// the effective context count.
	Curve ContextValidation
	// MeanMsgsPerTxn is the g used to invert the curve, averaged over
	// the sweep.
	MeanMsgsPerTxn float64
	// Params are the recovered application parameters: sensitivity s,
	// critical path c = p·g/s, and the fixed budget Tr+Tc+Tf.
	Params core.FittedParams
}

// RunReplayFit replays the trace across the mapping suite on the
// experiment engine, one independent machine per mapping, and fits
// the message curve through the sweep. Each machine's geometry comes
// from the trace header; streams loop so every mapping — however slow
// — sees steady-state traffic for the whole window.
func RunReplayFit(ctx context.Context, cfg ReplayFitConfig) (*ReplayFit, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("experiments: no trace to fit")
	}
	hdr := cfg.Trace.Header
	tor, err := topology.New(hdr.Radix, hdr.Dims)
	if err != nil {
		return nil, err
	}
	contexts := cfg.Contexts
	if contexts == 0 {
		contexts = hdr.Contexts
	}
	warmup, window := cfg.Warmup, cfg.Window
	if warmup <= 0 {
		warmup = hdr.Warmup
	}
	if window <= 0 {
		window = hdr.Window
	}
	maps := cfg.Mappings
	if maps == nil {
		maps = mapping.Suite(tor)
	}
	if len(maps) < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 mappings to fit a curve, have %d", len(maps))
	}

	var cells []engine.Cell[MappingPoint]
	for _, m := range maps {
		mc := machine.DefaultConfig(tor, m, contexts)
		mc.LineSize = hdr.LineSize
		mc.Workload = workload.ReplayConfig{Trace: cfg.Trace, Map: m, Contexts: contexts, Loop: true}
		cells = append(cells, engine.Cell[MappingPoint]{
			Key: fmt.Sprintf("replay %s/p=%d", m.Name, contexts),
			Run: func(ctx context.Context) (MappingPoint, error) {
				return measureCell(ctx, mc, warmup, window)
			},
		})
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[MappingPoint]{Exec: cfg.Exec})
	points, err := engine.Rows(results)
	if err != nil {
		return nil, err
	}

	curve, err := fitCurve(contexts, points, hdr.Dims)
	if err != nil {
		return nil, err
	}
	var gSum float64
	for _, pt := range points {
		gSum += pt.MsgsPerTxn
	}
	g := gSum / float64(len(points))
	// The replayed machine uses the reference clock ratio.
	clockRatio := float64(machine.DefaultConfig(tor, maps[0], contexts).ClockRatio)
	params, err := core.RecoverParams(core.NodeCurve{S: curve.S, K: curve.K}, contexts, g, clockRatio)
	if err != nil {
		return nil, fmt.Errorf("experiments: recovering parameters from replay fit: %w", err)
	}
	return &ReplayFit{Header: hdr, Curve: curve, MeanMsgsPerTxn: g, Params: params}, nil
}
