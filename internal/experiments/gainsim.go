package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/topology"
)

// GainSimRow compares the locality gain *measured* on the full-system
// simulator (ideal vs random mapping at one machine size) against the
// combined model's prediction for the same size. Figure 7 only exists
// as a model curve in the paper — machines with 10⁶ nodes cannot be
// simulated — but at simulable sizes the two must agree on the trend.
type GainSimRow struct {
	Radix, Nodes int
	// RandomD is the random mapping's exact average neighbor distance.
	RandomD float64
	// MeasuredGain is tt(random)/tt(ideal) from simulation.
	MeasuredGain float64
	// ModelGain is the combined model's prediction from the
	// core.Alewife(Contexts, 1) preset: its issue time at distance
	// RandomD over its issue time at distance 1. Nothing measured on
	// the simulated machine enters it.
	ModelGain float64
}

// GainSimConfig controls the study.
type GainSimConfig struct {
	engine.Exec
	// Radices are the torus side lengths to simulate (dims fixed at 2).
	Radices []int
	// Contexts is the hardware context count.
	Contexts int
	// Warmup and Window are per-run P-cycle counts.
	Warmup, Window int64
	// Seed selects the random mapping.
	Seed int64
}

// DefaultGainSimConfig simulates 16-, 36- and 64-node machines.
func DefaultGainSimConfig() GainSimConfig {
	return GainSimConfig{Radices: []int{4, 6, 8}, Contexts: 1, Warmup: 3000, Window: 10000, Seed: 1}
}

// RunGainSim measures locality gain on real simulations and pairs each
// measurement with the model's prediction, one engine cell per machine
// size (each cell simulates the ideal and random placements back to
// back). The model runs on the Alewife-calibrated preset with the
// simulator's grain estimate, so no per-size fitting is involved —
// this is a genuine cross-validation.
func RunGainSim(ctx context.Context, cfg GainSimConfig) ([]GainSimRow, error) {
	if len(cfg.Radices) == 0 {
		return nil, fmt.Errorf("experiments: no radices configured")
	}
	cells := make([]engine.Cell[GainSimRow], len(cfg.Radices))
	for i, k := range cfg.Radices {
		k := k
		cells[i] = engine.Cell[GainSimRow]{
			Key: fmt.Sprintf("gainsim k=%d", k),
			Run: func(ctx context.Context) (GainSimRow, error) {
				return measureGainSimCell(ctx, k, cfg)
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[GainSimRow]{Exec: cfg.Exec})
	return engine.Rows(results)
}

// measureGainSimCell runs one machine size: two simulations plus the
// paired model prediction.
func measureGainSimCell(ctx context.Context, k int, cfg GainSimConfig) (GainSimRow, error) {
	tor, err := topology.New(k, 2)
	if err != nil {
		return GainSimRow{}, err
	}
	ideal := mapping.Identity(tor)
	random := mapping.Random(tor, cfg.Seed)

	measure := func(m *mapping.Mapping) (machine.Metrics, error) {
		mach, err := machine.New(machine.DefaultConfig(tor, m, cfg.Contexts))
		if err != nil {
			return machine.Metrics{}, err
		}
		res, err := mach.Execute(ctx, machine.RunSpec{Warmup: cfg.Warmup, Window: cfg.Window})
		if err != nil {
			return machine.Metrics{}, err
		}
		return res.Metrics, nil
	}
	idealMet, err := measure(ideal)
	if err != nil {
		return GainSimRow{}, fmt.Errorf("experiments: gain sim k=%d ideal: %w", k, err)
	}
	randMet, err := measure(random)
	if err != nil {
		return GainSimRow{}, fmt.Errorf("experiments: gain sim k=%d random: %w", k, err)
	}

	// Model prediction at the random mapping's *actual* distance,
	// with the simulated machine's grain (the machine defaults) and
	// channel contention on (small machine regime).
	dRand := random.AvgDistance(tor)
	model := core.Alewife(cfg.Contexts, 1)
	modelIdeal, err := model.WithDistance(1).Solve()
	if err != nil {
		return GainSimRow{}, err
	}
	modelRandom, err := model.WithDistance(dRand).Solve()
	if err != nil {
		return GainSimRow{}, err
	}
	return GainSimRow{
		Radix:        k,
		Nodes:        tor.Nodes(),
		RandomD:      dRand,
		MeasuredGain: randMet.InterTxnTime / idealMet.InterTxnTime,
		ModelGain:    modelRandom.IssueTime / modelIdeal.IssueTime,
	}, nil
}
