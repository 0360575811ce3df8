package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/topology"
	"locality/internal/workload"
)

// GainScaleRow is one point on the simulated gain-vs-N curve: the
// locality gain (ideal vs random mapping) measured on the full-system
// simulator at one machine size, paired with the combined model's
// prediction for the same size and grain. The paper's Figure-scale
// curves stop being simulable long before 10⁶ nodes on the dense
// simulator; the active-set fabric and sparse node state push the
// simulable frontier past 10⁵ nodes, where this experiment produces
// real data points on the curve the paper could only model.
type GainScaleRow struct {
	Radix, Nodes int
	// Compute is the per-operation compute burst (P-cycles). Large
	// machines are only simulable in the comm-light regime, where the
	// event kernel can skip the long compute stretches.
	Compute int
	// RandomD is the random mapping's exact average neighbor distance.
	RandomD float64
	// IdealInterTxn and RandomInterTxn are the measured
	// inter-transaction times (P-cycles) under the two mappings.
	IdealInterTxn, RandomInterTxn float64
	// MeasuredGain is tt(random)/tt(ideal) from simulation.
	MeasuredGain float64
	// ModelGain is the combined model's prediction at the same grain
	// and distance (large-machine preset, node-channel contention off).
	ModelGain float64
}

// GainScaleConfig controls the scaling study.
type GainScaleConfig struct {
	engine.Exec
	// Radices are the torus side lengths to simulate (dims fixed at
	// 2), smallest first; the largest is the headline large-N point.
	Radices []int
	// Contexts is the hardware context count.
	Contexts int
	// Compute is the workload's ReadCompute/WriteCompute burst.
	Compute int
	// Warmup and Window are per-run P-cycle counts.
	Warmup, Window int64
	// Seed selects the random mapping.
	Seed int64
	// Instrument, when non-nil, is applied to each cell's machine
	// configuration just before construction — the hook the live
	// observability layer uses to attach a telemetry registry and a
	// run-loop observer. The label names the cell and placement
	// ("gainscale k=320 random:1"). Instrumentation must be
	// observational: it may attach Telemetry, Observer, Trace, and the
	// like, but must not alter simulated behavior.
	Instrument func(label string, mc *machine.Config)
}

// DefaultGainScaleConfig spans 1 024 → 102 400 nodes, ending above the
// 10⁵-node mark. The compute burst keeps the 320×320 random mapping's
// offered load well below fabric saturation — the only regime in which
// a 10⁵-node machine is simulable in a CI budget — and the window is
// sized so every thread completes at least one access inside it.
func DefaultGainScaleConfig() GainScaleConfig {
	return GainScaleConfig{
		Radices:  []int{32, 100, 320},
		Contexts: 1,
		Compute:  4000,
		Warmup:   4000,
		Window:   8000,
		Seed:     1,
	}
}

// RunGainScale measures the locality gain at each configured machine
// size (one engine cell per size; each cell simulates the ideal and
// random placements back to back) and pairs every measurement with the
// analytic model's prediction at the same grain and distance. Unlike
// RunGainSim — which validates the model at small, densely simulable
// sizes — this study's purpose is the large-N end: its largest default
// cell is a 320×320 torus, a machine two orders of magnitude beyond
// the paper's 64-node simulations.
func RunGainScale(ctx context.Context, cfg GainScaleConfig) ([]GainScaleRow, error) {
	if len(cfg.Radices) == 0 {
		return nil, fmt.Errorf("experiments: no radices configured")
	}
	cells := make([]engine.Cell[GainScaleRow], len(cfg.Radices))
	for i, k := range cfg.Radices {
		k := k
		cells[i] = engine.Cell[GainScaleRow]{
			Key: fmt.Sprintf("gainscale k=%d", k),
			Run: func(ctx context.Context) (GainScaleRow, error) {
				return measureGainScaleCell(ctx, k, cfg)
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[GainScaleRow]{Exec: cfg.Exec})
	return engine.Rows(results)
}

// scaleMachineConfig builds the comm-light machine configuration for
// one cell. The cache must hold every instance's state-word working
// set (the relaxation workload assumes conflict-free caching), so the
// line count grows with the machine: the sparse cache makes a
// 128Ki-line configuration cost only the lines actually touched. The
// workload runs with Stagger so windowed throughput is sensitive to
// per-access latency (lockstep threads all cross the window boundary
// at the same phase, which hides latency from completed-access
// counts).
func scaleMachineConfig(tor *topology.Torus, m *mapping.Mapping, cfg GainScaleConfig) machine.Config {
	mc := machine.DefaultConfig(tor, m, cfg.Contexts)
	mc.ReadCompute = cfg.Compute
	mc.WriteCompute = cfg.Compute
	for mc.CacheLines < cfg.Contexts*tor.Nodes() {
		mc.CacheLines *= 2
	}
	mc.Workload = workload.RelaxationConfig{
		Graph:        tor,
		Map:          m,
		Instances:    cfg.Contexts,
		LineSize:     mc.LineSize,
		ReadCompute:  cfg.Compute,
		WriteCompute: cfg.Compute,
		Stagger:      true,
	}
	return mc
}

// measureGainScaleCell runs one machine size: two simulations plus the
// paired model prediction.
func measureGainScaleCell(ctx context.Context, k int, cfg GainScaleConfig) (GainScaleRow, error) {
	tor, err := topology.New(k, 2)
	if err != nil {
		return GainScaleRow{}, err
	}
	ideal := mapping.Identity(tor)
	random := mapping.Random(tor, cfg.Seed)

	measure := func(m *mapping.Mapping) (machine.Metrics, error) {
		mc := scaleMachineConfig(tor, m, cfg)
		if cfg.Instrument != nil {
			cfg.Instrument(fmt.Sprintf("gainscale k=%d %s", k, m.Name), &mc)
		}
		mach, err := machine.New(mc)
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
		return GainScaleRow{}, fmt.Errorf("experiments: gain scale k=%d ideal: %w", k, err)
	}
	randMet, err := measure(random)
	if err != nil {
		return GainScaleRow{}, fmt.Errorf("experiments: gain scale k=%d random: %w", k, err)
	}

	// Model prediction at the random mapping's *actual* distance, at
	// the workload's grain, in the large-machine regime (node-channel
	// contention off — see core.AlewifeLargeScale).
	dRand := random.AvgDistance(tor)
	grain := workload.RelaxationConfig{
		Graph:        tor,
		Map:          ideal,
		Instances:    cfg.Contexts,
		LineSize:     1,
		ReadCompute:  cfg.Compute,
		WriteCompute: cfg.Compute,
	}.GrainEstimate(1)
	model := core.AlewifeLargeScale(cfg.Contexts, 1)
	model.App.Grain = grain
	modelIdeal, err := model.WithDistance(1).Solve()
	if err != nil {
		return GainScaleRow{}, err
	}
	modelRandom, err := model.WithDistance(dRand).Solve()
	if err != nil {
		return GainScaleRow{}, err
	}
	return GainScaleRow{
		Radix:          k,
		Nodes:          tor.Nodes(),
		Compute:        cfg.Compute,
		RandomD:        dRand,
		IdealInterTxn:  idealMet.InterTxnTime,
		RandomInterTxn: randMet.InterTxnTime,
		MeasuredGain:   randMet.InterTxnTime / idealMet.InterTxnTime,
		ModelGain:      modelRandom.IssueTime / modelIdeal.IssueTime,
	}, nil
}
