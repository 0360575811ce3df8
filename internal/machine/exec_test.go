package machine

import (
	"context"
	"strings"
	"testing"

	"locality/internal/mapping"
	"locality/internal/topology"
)

// Test helpers funneling the suite through the one public entry point,
// so every behavioral test exercises Execute rather than the
// deprecated wrappers.

// execCycles advances m by n P-cycles and returns the metrics
// accumulated since the last statistics reset.
func execCycles(t testing.TB, m *Machine, n int64) Metrics {
	t.Helper()
	res, err := m.Execute(context.Background(), RunSpec{Cycles: n})
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics
}

// execMeasured runs the standard experiment protocol (warmup, stats
// reset, measurement window) and returns the window's metrics.
func execMeasured(t testing.TB, m *Machine, warmup, window int64) Metrics {
	t.Helper()
	res, err := m.Execute(context.Background(), RunSpec{Warmup: warmup, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics
}

// execMeasuredChecked is execMeasured for tests that assert on the
// error instead of requiring success.
func execMeasuredChecked(ctx context.Context, m *Machine, warmup, window int64) (Metrics, error) {
	res, err := m.Execute(ctx, RunSpec{Warmup: warmup, Window: window})
	return res.Metrics, err
}

func TestRunSpecValidate(t *testing.T) {
	valid := []RunSpec{
		{},
		{Cycles: 5},
		{Warmup: 2000, Window: 8000},
		{Window: 8000},
	}
	for _, s := range valid {
		if err := s.validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	invalid := []RunSpec{
		{Cycles: -1},
		{Warmup: -1},
		{Window: -1},
		{Cycles: 5, Warmup: 2000},
		{Cycles: 5, Window: 8000},
	}
	for _, s := range invalid {
		if err := s.validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}

	// Execute surfaces validation errors without touching the machine.
	tor := topology.MustNew(4, 2)
	mach, err := New(DefaultConfig(tor, mapping.Identity(tor), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Execute(context.Background(), RunSpec{Cycles: 5, Window: 10}); err == nil {
		t.Error("Execute accepted a contradictory RunSpec")
	} else if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("unhelpful validation error: %v", err)
	}
	if mach.Now() != 0 {
		t.Errorf("rejected Execute advanced the clock to %d", mach.Now())
	}
}

// TestExecutePhaseSplitIsInvisible pins the protocol equivalence the
// deleted legacy wrappers used to embody: running warmup and window as
// two separate Execute calls with a manual stats reset produces the
// same metrics as the one-call measured protocol.
func TestExecutePhaseSplitIsInvisible(t *testing.T) {
	tor := topology.MustNew(4, 2)
	build := func() *Machine {
		m, err := New(DefaultConfig(tor, mapping.Random(tor, 3), 2))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const warmup, window = 1000, 4000
	ctx := context.Background()

	want := execMeasured(t, build(), warmup, window)

	split := build()
	if _, err := split.Execute(ctx, RunSpec{Cycles: warmup}); err != nil {
		t.Fatal(err)
	}
	split.ResetStats()
	if _, err := split.Execute(ctx, RunSpec{Cycles: window}); err != nil {
		t.Fatal(err)
	}
	if got := split.Measure(); got != want {
		t.Errorf("split Execute diverged from measured protocol:\n%+v\n%+v", got, want)
	}

	// The measured protocol runs on the absolute clock: a machine a
	// Cycles call already advanced part of the way into its warmup
	// finishes the warmup, resets at cycle warmup, and measures the
	// same window as the fresh protocol.
	ahead := build()
	if _, err := ahead.Execute(ctx, RunSpec{Cycles: warmup / 3}); err != nil {
		t.Fatal(err)
	}
	res, err := ahead.Execute(ctx, RunSpec{Warmup: warmup, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != want {
		t.Errorf("measured protocol from cycle %d diverged from the fresh one:\n%+v\n%+v", warmup/3, res.Metrics, want)
	}
}
