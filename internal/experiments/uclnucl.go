package experiments

import (
	"fmt"

	"locality/internal/core"
)

// UCLvsNUCLRow compares, at one machine size, application performance
// on three organizations of the same technology: a 2-D torus with an
// ideal mapping (NUCL exploiting physical locality), the same torus
// with a random mapping (NUCL ignoring it), and a multistage indirect
// network (UCL — locality cannot be exploited at all). This quantifies
// the introduction's argument for why scalable machines should expose
// non-uniform latency.
type UCLvsNUCLRow struct {
	Nodes float64
	// Message latencies (N-cycles) at the solved operating points.
	TorusIdeal, TorusRandom, Indirect float64
	// Issue rates relative to the torus-ideal case.
	RelRandom, RelIndirect float64
}

// UCLvsNUCLConfig controls the organization comparison.
type UCLvsNUCLConfig struct {
	// Sizes is the grid of machine sizes N.
	Sizes []float64
	// Contexts is the hardware context count.
	Contexts int
}

// DefaultUCLvsNUCLConfig sweeps 64 processors to a million at one
// point per decade with the one-context application.
func DefaultUCLvsNUCLConfig() UCLvsNUCLConfig {
	return UCLvsNUCLConfig{Sizes: core.LogSizes(64, 1e6, 1), Contexts: 1}
}

// RunUCLvsNUCL evaluates the comparison across machine sizes using the
// Alewife-calibrated application at the given context count, one row
// per size. The indirect network uses radix-2 switches (log₂N stages),
// the classic building block for butterflies.
func RunUCLvsNUCL(fc UCLvsNUCLConfig) ([]UCLvsNUCLRow, error) {
	cfg := core.AlewifeLargeScale(fc.Contexts, 1)
	node := cfg.Node()
	curve := core.NodeCurve{S: node.Sensitivity(), K: node.Intercept()}
	torus := cfg.Net

	rows := make([]UCLvsNUCLRow, len(fc.Sizes))
	for i, n := range fc.Sizes {
		rateIdeal, tmIdeal, err := core.SolveOnFabric(curve, torus, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: ucl-nucl ideal at N=%g: %w", n, err)
		}
		dRandom := core.RandomMappingDistance(torus.Dims, n)
		rateRandom, tmRandom, err := core.SolveOnFabric(curve, torus, dRandom)
		if err != nil {
			return nil, fmt.Errorf("experiments: ucl-nucl random at N=%g: %w", n, err)
		}
		indirect := core.IndirectFor(n, 2, torus.MsgSize)
		rateInd, tmInd, err := core.SolveOnFabric(curve, indirect, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: ucl-nucl indirect at N=%g: %w", n, err)
		}
		// Message rate is proportional to transaction rate at fixed g,
		// so rate ratios are performance ratios.
		rows[i] = UCLvsNUCLRow{
			Nodes:       n,
			TorusIdeal:  tmIdeal,
			TorusRandom: tmRandom,
			Indirect:    tmInd,
			RelRandom:   rateRandom / rateIdeal,
			RelIndirect: rateInd / rateIdeal,
		}
	}
	return rows, nil
}
