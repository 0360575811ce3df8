package machine

import (
	"context"
	"fmt"
)

// RunSpec describes one Execute call: either a plain advance of Cycles
// P-cycles, or the standard experiment protocol (warm up until cycle
// Warmup, reset statistics, run the Window-cycle measurement window).
// The two forms are mutually exclusive.
type RunSpec struct {
	// Cycles advances the machine by this many P-cycles with no stats
	// reset. Mutually exclusive with Warmup/Window.
	Cycles int64
	// Warmup and Window select the experiment protocol on the
	// machine's absolute clock: run to cycle Warmup, reset statistics,
	// run to cycle Warmup+Window, measure.
	Warmup, Window int64
}

func (s RunSpec) validate() error {
	if s.Cycles < 0 || s.Warmup < 0 || s.Window < 0 {
		return fmt.Errorf("machine: negative RunSpec field: %+v", s)
	}
	if s.Cycles > 0 && (s.Warmup > 0 || s.Window > 0) {
		return fmt.Errorf("machine: RunSpec.Cycles is mutually exclusive with Warmup/Window: %+v", s)
	}
	return nil
}

// measured reports whether the spec runs the experiment protocol (as
// opposed to a plain advance).
func (s RunSpec) measured() bool { return s.Warmup > 0 || s.Window > 0 }

// Result is what one Execute call produced. Metrics covers the
// measurement window under the Warmup/Window protocol, or everything
// since the last statistics reset under a plain Cycles advance.
type Result struct {
	Metrics
}

// Execute advances the machine according to spec, under the configured
// watchdog and checkpointing, stopping early with the context's error
// if ctx is canceled at a poll point. It is the machine's only run
// entry point:
//
//	Execute(ctx, RunSpec{Cycles: n})            // plain advance
//	Execute(ctx, RunSpec{Warmup: w, Window: n}) // measured protocol
//
// The measured protocol continues from wherever the clock stands, so a
// machine restored from a checkpoint finishes the run it was taken
// from: at or before cycle Warmup the statistics reset still lands at
// exactly cycle Warmup, and past it only the rest of the window runs.
// On a fresh machine that is the whole protocol.
//
// On error the returned Result is the zero value.
func (m *Machine) Execute(ctx context.Context, spec RunSpec) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if spec.measured() {
		if m.pnow <= spec.Warmup {
			if err := m.runChecked(ctx, spec.Warmup-m.pnow); err != nil {
				return Result{}, err
			}
			m.ResetStats()
		}
		spec.Cycles = spec.Warmup + spec.Window - m.pnow
	}
	if err := m.runChecked(ctx, spec.Cycles); err != nil {
		return Result{}, err
	}
	return Result{Metrics: m.Measure()}, nil
}
