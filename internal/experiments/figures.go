package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/stats"
)

// Figure6 computes average per-hop latency Th against machine size N
// for the Section 3 application with two hardware contexts, at the
// base computational grain and at 10× grain, assuming random
// communication patterns on a 2-D torus. The paper's anchors: the
// limiting value is ≈9.8 N-cycles (Equation 16) and the small-grain
// curve reaches over 80% of it by a few thousand processors.
type Figure6Result struct {
	Limit float64
	Base  stats.Series // Th vs N, base grain
	Big   stats.Series // Th vs N, 10× grain
}

// Figure6Config controls the Figure 6 sweep.
type Figure6Config struct {
	engine.Exec
	// Sizes is the grid of machine sizes N.
	Sizes []float64
}

// DefaultFigure6Config evaluates the paper's log grid: ten processors
// to a million, two points per decade.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{Sizes: core.LogSizes(10, 1e6, 2)}
}

// figure6Point is one machine size's pair of hop latencies.
type figure6Point struct {
	base, big float64
}

// RunFigure6 evaluates the model at every machine size, one engine
// cell per size.
func RunFigure6(ctx context.Context, fc Figure6Config) (Figure6Result, error) {
	cfg := core.AlewifeLargeScale(2, 1)
	res := Figure6Result{Limit: core.HopLatencyLimit(cfg)}
	res.Base.Label = "base grain"
	res.Big.Label = "10x grain"
	big := cfg.WithGrainFactor(10)
	cells := make([]engine.Cell[figure6Point], len(fc.Sizes))
	for i, n := range fc.Sizes {
		n := n
		cells[i] = engine.Cell[figure6Point]{
			Key: fmt.Sprintf("figure6 N=%g", n),
			Run: func(ctx context.Context) (figure6Point, error) {
				d := core.RandomMappingDistance(cfg.Net.Dims, n)
				var pt figure6Point
				var err error
				pt.base, err = core.HopLatencyAtDistance(cfg, d)
				if err != nil {
					return pt, fmt.Errorf("experiments: figure 6 base at N=%g: %w", n, err)
				}
				pt.big, err = core.HopLatencyAtDistance(big, d)
				if err != nil {
					return pt, fmt.Errorf("experiments: figure 6 big at N=%g: %w", n, err)
				}
				return pt, nil
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[figure6Point]{Exec: fc.Exec})
	points, err := engine.Rows(results)
	if err != nil {
		return res, err
	}
	for i, n := range fc.Sizes {
		res.Base.Append(n, points[i].base)
		res.Big.Append(n, points[i].big)
	}
	return res, nil
}

// Figure7 computes the expected gain from exploiting physical locality
// against machine size for one, two, and four hardware contexts. The
// Equation 4 issue-time floor is enforced (see TestExpectedGainPaperAnchors
// for why: the p=4 ideal-mapping point sits below the multithreading
// floor). Anchors: gain ≈ 1 at ten processors, ≈ 2 at a thousand, and
// tens (paper: 40–55) at a million.
type Figure7Result struct {
	Curves []Figure7Curve
}

// Figure7Curve is one context count's gain curve.
type Figure7Curve struct {
	P     int
	Gains stats.Series // gain vs N
}

// Figure7Config controls the Figure 7 sweep.
type Figure7Config struct {
	engine.Exec
	// Sizes is the grid of machine sizes N.
	Sizes []float64
	// Contexts lists the context counts, one curve each.
	Contexts []int
}

// DefaultFigure7Config evaluates the paper's grid: ten processors to a
// million at one, two, and four contexts.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{Sizes: core.LogSizes(10, 1e6, 2), Contexts: []int{1, 2, 4}}
}

// RunFigure7 evaluates the model over the (contexts × sizes) grid, one
// engine cell per point.
func RunFigure7(ctx context.Context, fc Figure7Config) (Figure7Result, error) {
	var res Figure7Result
	var cells []engine.Cell[float64]
	for _, p := range fc.Contexts {
		p := p
		cfg := core.AlewifeLargeScale(p, 1)
		cfg.AssumeUnmasked = false
		for _, n := range fc.Sizes {
			n := n
			cells = append(cells, engine.Cell[float64]{
				Key: fmt.Sprintf("figure7 p=%d N=%g", p, n),
				Run: func(ctx context.Context) (float64, error) {
					g, err := core.ExpectedGain(cfg, n)
					if err != nil {
						return 0, fmt.Errorf("experiments: figure 7 p=%d N=%g: %w", p, n, err)
					}
					return g.Gain, nil
				},
			})
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[float64]{Exec: fc.Exec})
	gains, err := engine.Rows(results)
	if err != nil {
		return res, err
	}
	for ci, p := range fc.Contexts {
		curve := Figure7Curve{P: p}
		curve.Gains.Label = fmt.Sprintf("p=%d", p)
		for si, n := range fc.Sizes {
			curve.Gains.Append(n, gains[ci*len(fc.Sizes)+si])
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// Figure8Case is one bar of Figure 8: the issue-time decomposition for
// one mapping and context count on a 1,000-processor machine.
type Figure8Case struct {
	P         int
	Mapping   string // "ideal" or "random"
	D         float64
	Breakdown core.Breakdown
	IssueTime float64
}

// Figure8Config controls the decomposition study.
type Figure8Config struct {
	engine.Exec
	// Nodes is the machine size (1000 in the paper).
	Nodes float64
	// Contexts lists the context counts (1, 2, 4 in the paper); each
	// contributes an ideal and a random bar.
	Contexts []int
}

// DefaultFigure8Config reproduces the paper's six bars at N=1000.
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{Nodes: 1000, Contexts: []int{1, 2, 4}}
}

// RunFigure8 computes the Equation 18 decomposition for ideal and
// random mappings with one engine cell per (contexts, mapping) case.
// The paper's observations: fixed transaction overhead is ≈2/3 of the
// fixed component everywhere; moving ideal→random the variable message
// overhead grows drastically but only to parity with the fixed parts,
// limiting the net impact to about 2×.
func RunFigure8(ctx context.Context, fc Figure8Config) ([]Figure8Case, error) {
	dRandom := core.RandomMappingDistance(2, fc.Nodes)
	type mappingCase struct {
		name string
		d    float64
	}
	var cells []engine.Cell[Figure8Case]
	for _, p := range fc.Contexts {
		p := p
		for _, tc := range []mappingCase{{"ideal", 1}, {"random", dRandom}} {
			tc := tc
			cells = append(cells, engine.Cell[Figure8Case]{
				Key: fmt.Sprintf("figure8 p=%d %s", p, tc.name),
				Run: func(ctx context.Context) (Figure8Case, error) {
					cfg := core.AlewifeLargeScale(p, tc.d)
					// Enforce the Equation 4 floor, consistent with
					// Figure 7: the p=4 ideal-mapping point is
					// latency-masked.
					cfg.AssumeUnmasked = false
					sol, err := cfg.Solve()
					if err != nil {
						return Figure8Case{}, fmt.Errorf("experiments: figure 8 p=%d %s: %w", p, tc.name, err)
					}
					return Figure8Case{
						P:         p,
						Mapping:   tc.name,
						D:         tc.d,
						Breakdown: cfg.DecomposeIssueTime(sol),
						IssueTime: sol.IssueTime,
					}, nil
				},
			})
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[Figure8Case]{Exec: fc.Exec})
	return engine.Rows(results)
}

// Table1Row is one row of Table 1: expected gains at two machine
// sizes for a given network speed relative to the processor clock.
type Table1Row struct {
	// Label names the row as in the paper ("2x faster" is the base
	// architecture).
	Label string
	// SpeedFactor multiplies the base architecture's clock ratio.
	SpeedFactor float64
	Gain1e3     float64
	Gain1e6     float64
}

// Table1Config controls the network-speed sensitivity study.
type Table1Config struct {
	engine.Exec
	// Speeds lists the rows: a label and the factor applied to the
	// base architecture's network clock.
	Speeds []Table1Speed
}

// Table1Speed names one network-speed row.
type Table1Speed struct {
	Label       string
	SpeedFactor float64
}

// DefaultTable1Config reproduces the paper's four rows (the base
// architecture's network runs at twice the processor clock).
func DefaultTable1Config() Table1Config {
	return Table1Config{Speeds: []Table1Speed{
		{Label: "2x faster", SpeedFactor: 1},
		{Label: "same", SpeedFactor: 0.5},
		{Label: "2x slower", SpeedFactor: 0.25},
		{Label: "4x slower", SpeedFactor: 0.125},
	}}
}

// RunTable1 reproduces Table 1 for the one-context application, one
// engine cell per network speed. Paper values: 2.1/41.2, 3.1/68.3,
// 4.5/101.6, 5.9/134.3.
func RunTable1(ctx context.Context, fc Table1Config) ([]Table1Row, error) {
	cells := make([]engine.Cell[Table1Row], len(fc.Speeds))
	for i, sp := range fc.Speeds {
		sp := sp
		cells[i] = engine.Cell[Table1Row]{
			Key: fmt.Sprintf("table1 %s", sp.Label),
			Run: func(ctx context.Context) (Table1Row, error) {
				row := Table1Row{Label: sp.Label, SpeedFactor: sp.SpeedFactor}
				cfg := core.AlewifeLargeScale(1, 1).WithNetworkSpeed(sp.SpeedFactor)
				g3, err := core.ExpectedGain(cfg, 1000)
				if err != nil {
					return row, fmt.Errorf("experiments: table 1 row %q at 10^3: %w", sp.Label, err)
				}
				g6, err := core.ExpectedGain(cfg, 1e6)
				if err != nil {
					return row, fmt.Errorf("experiments: table 1 row %q at 10^6: %w", sp.Label, err)
				}
				row.Gain1e3 = g3.Gain
				row.Gain1e6 = g6.Gain
				return row, nil
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[Table1Row]{Exec: fc.Exec})
	return engine.Rows(results)
}
