package experiments

import (
	"context"
	"fmt"

	"locality/internal/core"
	"locality/internal/engine"
)

// ContentionRow quantifies how much of average message latency is due
// to network contention (as opposed to base hop delay and message
// serialization) at one machine size under random placement.
type ContentionRow struct {
	Nodes float64
	// D is the random-mapping distance.
	D float64
	// Tm is the solved message latency; TmZeroLoad is what the same
	// route costs in an empty network (Th = 1).
	Tm, TmZeroLoad float64
	// ContentionShare is (Tm − TmZeroLoad)/Tm.
	ContentionShare float64
	// Utilization is the solved channel utilization.
	Utilization float64
}

// ContentionConfig controls the contention-share study.
type ContentionConfig struct {
	engine.Exec
	// Sizes is the grid of machine sizes N.
	Sizes []float64
	// Contexts is the hardware context count.
	Contexts int
}

// DefaultContentionConfig sweeps 64 processors to a million at one
// point per decade with the one-context application.
func DefaultContentionConfig() ContentionConfig {
	return ContentionConfig{Sizes: core.LogSizes(64, 1e6, 1), Contexts: 1}
}

// RunContentionShare reproduces the Section 5 cross-check against
// Chittor and Enbody: on machines up to ~144 nodes the effect of
// network contention is observable but does not dominate end
// performance, while extrapolation to thousands of nodes makes it
// substantial. Both conclusions fall out of the combined model, one
// engine cell per machine size.
func RunContentionShare(ctx context.Context, fc ContentionConfig) ([]ContentionRow, error) {
	cfg := core.AlewifeLargeScale(fc.Contexts, 1)
	cells := make([]engine.Cell[ContentionRow], len(fc.Sizes))
	for i, n := range fc.Sizes {
		n := n
		cells[i] = engine.Cell[ContentionRow]{
			Key: fmt.Sprintf("contention N=%g", n),
			Run: func(ctx context.Context) (ContentionRow, error) {
				d := core.RandomMappingDistance(cfg.Net.Dims, n)
				sol, err := cfg.WithDistance(d).Solve()
				if err != nil {
					return ContentionRow{}, fmt.Errorf("experiments: contention share at N=%g: %w", n, err)
				}
				zero := d + cfg.Net.MsgSize // Th = 1 per hop, plus serialization
				return ContentionRow{
					Nodes:           n,
					D:               d,
					Tm:              sol.MsgLatency,
					TmZeroLoad:      zero,
					ContentionShare: (sol.MsgLatency - zero) / sol.MsgLatency,
					Utilization:     sol.Utilization,
				}, nil
			},
		}
	}
	results, _ := engine.Grid(ctx, cells, engine.Options[ContentionRow]{Exec: fc.Exec})
	return engine.Rows(results)
}
