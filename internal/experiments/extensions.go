package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/mapsel"
	"locality/internal/topology"
	"locality/internal/workload"
)

// This file contains the extension studies that go beyond the paper's
// published figures while staying inside its framework:
//
//   - ToleranceStudy compares the latency-tolerance mechanisms of
//     Section 2.1 (block multithreading vs data prefetching) head to
//     head on the full-system simulator;
//   - DimensionStudy quantifies Section 4.2's closing observation that
//     higher-dimensional networks reduce the payoff of exploiting
//     physical locality.

// ToleranceRow is one simulated configuration of the tolerance study.
type ToleranceRow struct {
	Label   string
	Mapping string
	D       float64
	// Measured inter-transaction time and message latency.
	InterTxnTime, MsgLatency float64
	// SpeedupVsBase is the throughput ratio against the blocking
	// single-context run on the same mapping.
	SpeedupVsBase float64
}

// ToleranceConfig controls the study.
type ToleranceConfig struct {
	engine.Exec
	Radix, Dims    int
	Warmup, Window int64
	// Mapping selector (mapsel syntax) for the placement under test.
	Mapping string
}

// DefaultToleranceConfig compares mechanisms on the 64-node machine
// under a random mapping, where there is substantial latency to hide.
func DefaultToleranceConfig() ToleranceConfig {
	return ToleranceConfig{Radix: 8, Dims: 2, Warmup: 4000, Window: 12000, Mapping: "random:1"}
}

// RunTolerance simulates six machines on the same workload and
// placement: blocking single-context (the baseline), single-context
// with prefetching, with weak ordering, with both combined, and
// block-multithreaded with two and four contexts — one engine cell per
// variant, with speedups computed against the baseline row afterwards.
func RunTolerance(ctx context.Context, cfg ToleranceConfig) ([]ToleranceRow, error) {
	tor, err := topology.New(cfg.Radix, cfg.Dims)
	if err != nil {
		return nil, err
	}
	m, err := mapsel.Parse(tor, cfg.Mapping)
	if err != nil {
		return nil, err
	}
	d := m.AvgDistance(tor)

	type variant struct {
		label    string
		contexts int
		prefetch bool
		weak     bool
	}
	variants := []variant{
		{"blocking (p=1)", 1, false, false},
		{"prefetching (p=1)", 1, true, false},
		{"weak ordering (p=1)", 1, false, true},
		{"prefetch + weak (p=1)", 1, true, true},
		{"multithreaded (p=2)", 2, false, false},
		{"multithreaded (p=4)", 4, false, false},
	}
	cells := make([]engine.Cell[ToleranceRow], len(variants))
	for i, v := range variants {
		v := v
		cells[i] = engine.Cell[ToleranceRow]{
			Key: fmt.Sprintf("tolerance %s", v.label),
			Run: func(ctx context.Context) (ToleranceRow, error) {
				mc := machine.DefaultConfig(tor, m, v.contexts)
				if v.prefetch || v.weak {
					mc.Workload = workload.RelaxationConfig{
						Graph:        tor,
						Map:          m,
						Instances:    v.contexts,
						LineSize:     mc.LineSize,
						ReadCompute:  mc.ReadCompute,
						WriteCompute: mc.WriteCompute,
						Prefetch:     v.prefetch,
						WeakOrdering: v.weak,
					}
				}
				mach, err := machine.New(mc)
				if err != nil {
					return ToleranceRow{}, fmt.Errorf("experiments: tolerance %q: %w", v.label, err)
				}
				res, err := mach.Execute(ctx, machine.RunSpec{Warmup: cfg.Warmup, Window: cfg.Window})
				if err != nil {
					return ToleranceRow{}, fmt.Errorf("experiments: tolerance %q: %w", v.label, err)
				}
				met := res.Metrics
				return ToleranceRow{
					Label:        v.label,
					Mapping:      m.Name,
					D:            d,
					InterTxnTime: met.InterTxnTime,
					MsgLatency:   met.MsgLatency,
				}, nil
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[ToleranceRow]{Exec: cfg.Exec})
	rows, err := engine.Rows(results)
	if err != nil {
		return nil, err
	}
	baseTT := rows[0].InterTxnTime
	for i := range rows {
		rows[i].SpeedupVsBase = baseTT / rows[i].InterTxnTime
	}
	return rows, nil
}

// DimensionRow is one network dimension's model evaluation at a fixed
// machine size.
type DimensionRow struct {
	Dims int
	// RandomDistance is Equation 17's expectation for this dimension.
	RandomDistance float64
	// Gain is the ideal-vs-random locality gain.
	Gain float64
	// RandomIssueTime is absolute performance with random placement.
	RandomIssueTime float64
	// HopLimit is Th∞ = B·s/2n.
	HopLimit float64
}

// DimensionConfig controls the dimension study.
type DimensionConfig struct {
	// Nodes is the fixed machine size.
	Nodes float64
	// Dims lists the mesh dimensions to evaluate.
	Dims []int
	// Contexts is the hardware context count.
	Contexts int
}

// DefaultDimensionConfig evaluates a 4,096-processor machine across
// mesh dimensions one through six with the one-context application.
func DefaultDimensionConfig() DimensionConfig {
	return DimensionConfig{Nodes: 4096, Dims: []int{1, 2, 3, 4, 5, 6}, Contexts: 1}
}

// RunDimensionStudy evaluates the combined model across mesh
// dimensions at one machine size (Section 4.2's closing analysis:
// higher n shortens random-mapping distances and lowers Th, shrinking
// both the need for and the benefit of exploiting locality), one row
// per dimension.
func RunDimensionStudy(fc DimensionConfig) ([]DimensionRow, error) {
	rows := make([]DimensionRow, len(fc.Dims))
	for i, n := range fc.Dims {
		cfg := core.AlewifeLargeScale(fc.Contexts, 1)
		cfg.Net.Dims = n
		g, err := core.ExpectedGain(cfg, fc.Nodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: dimension study n=%d: %w", n, err)
		}
		rows[i] = DimensionRow{
			Dims:            n,
			RandomDistance:  g.RandomDistance,
			Gain:            g.Gain,
			RandomIssueTime: g.Random.IssueTime,
			HopLimit:        core.HopLatencyLimit(cfg),
		}
	}
	return rows, nil
}
