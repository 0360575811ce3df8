package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"locality/internal/mapping"
	"locality/internal/sim"
	"locality/internal/topology"
)

// stallingMachine builds a 4×4 random-mapping machine, one context per
// processor, whose 20-P-cycle watchdog bound lies below every
// transaction's latency: the protocol check trips on the first
// transaction, at cycle 40. mutate, when non-nil, adjusts the
// configuration first.
func stallingMachine(t *testing.T, mode sim.KernelKind, mutate func(*Config)) *Machine {
	t.Helper()
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Random(tor, 1), 1)
	cfg.Kernel = mode
	cfg.Watchdog = Watchdog{StallCycles: 20}
	if mutate != nil {
		mutate(&cfg)
	}
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// TestWatchdogConvertsPermanentStallToTypedError: a run that goes
// longer than the bound without progress must return a StallReport
// wrapping ErrStalled, with a diagnostic snapshot, at the first check
// past the bound rather than at the end of the requested run. The
// watchdog cannot tell a permanent stall from a transaction slower
// than its bound, so a bound below every transaction's latency
// provokes the same error.
func TestWatchdogConvertsPermanentStallToTypedError(t *testing.T) {
	mach := stallingMachine(t, sim.KernelEvent, nil)
	_, err := mach.Execute(context.Background(), RunSpec{Cycles: 200000})
	if err == nil {
		t.Fatal("no error from a machine whose every transaction outlives the bound")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("error %v does not wrap ErrStalled", err)
	}
	var rep *StallReport
	if !errors.As(err, &rep) {
		t.Fatalf("error %T is not a *StallReport", err)
	}
	if rep.Snapshot == "" {
		t.Error("stall report carries no diagnostic snapshot")
	}
	if rep.Component != "protocol" || !strings.Contains(rep.Detail, "outstanding for") {
		t.Errorf("stall report incomplete: %+v", rep)
	}
	if !strings.HasPrefix(err.Error(), "machine: protocol stalled at cycle 40") {
		t.Errorf("error %q, want the machine: prefix and cycle 40", err)
	}
	if mach.Now() != rep.Cycle {
		t.Errorf("machine at cycle %d, stall reported at %d", mach.Now(), rep.Cycle)
	}
}

// TestWatchdogReportsFrozenFabric covers the network check, which a
// fault-free fabric never trips: it restores a mid-run checkpoint with
// traffic in flight, moves the fabric's last progress back past the
// bound, and calls the watchdog body directly.
func TestWatchdogReportsFrozenFabric(t *testing.T) {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Random(tor, 1), 2)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Execute(context.Background(), RunSpec{Cycles: 300}); err != nil {
		t.Fatal(err)
	}
	if !src.Network().Busy() {
		t.Fatal("no traffic in flight at the snapshot")
	}
	const bound = 100
	ck := src.BuildCheckpoint(0)
	ck.Net.LastProgress = ck.Net.Now - bound*int64(cfg.ClockRatio)
	cfg.Watchdog = Watchdog{StallCycles: bound}
	mach, err := RestoreFrom(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	err = mach.checkProgress(2)
	var rep *StallReport
	if !errors.As(err, &rep) {
		t.Fatalf("expected a StallReport, got %v", err)
	}
	if rep.Component != "network" || rep.StalledFor != bound || rep.Cycle != 300 {
		t.Errorf("report %+v, want a network stall of %d P-cycles at cycle 300", rep, bound)
	}
	if !strings.Contains(rep.Snapshot, "router") {
		t.Errorf("diagnostic snapshot names no router:\n%s", rep.Snapshot)
	}
}

// TestWatchdogAgesTransactionsInDrainedFabric: the fabric checks are
// skipped for a chunk the event kernel skipped through, but the
// transaction-age check is not, so a transaction outstanding while the
// fabric is drained still trips the watchdog.
func TestWatchdogAgesTransactionsInDrainedFabric(t *testing.T) {
	mach := stallingMachine(t, sim.KernelEvent, func(c *Config) { c.Watchdog = Watchdog{} })
	for {
		if txn := mach.Protocol().OldestTxn(); txn != nil && !mach.Network().Busy() && mach.Now() > txn.Started {
			break
		}
		if mach.Now() > 5000 {
			t.Fatal("no cycle with a drained fabric and an aged transaction")
		}
		if _, err := mach.Execute(context.Background(), RunSpec{Cycles: 1}); err != nil {
			t.Fatal(err)
		}
	}
	age := mach.Now() - mach.Protocol().OldestTxn().Started
	mach.cfg.Watchdog = Watchdog{StallCycles: age}
	err := mach.checkProgress(0)
	var rep *StallReport
	if !errors.As(err, &rep) || rep.Component != "protocol" || rep.StalledFor != age {
		t.Fatalf("got %v, want a protocol stall of %d P-cycles", err, age)
	}
}

func TestStallReport(t *testing.T) {
	var err error = &StallReport{
		Component:  "network",
		Cycle:      1234,
		StalledFor: 500,
		Detail:     "worm 3→9 stuck at router 5",
		Snapshot:   "router 5: in[0]=4 flits",
	}
	if !errors.Is(err, ErrStalled) {
		t.Error("StallReport must wrap ErrStalled")
	}
	var rep *StallReport
	if !errors.As(err, &rep) || rep.Snapshot == "" {
		t.Error("StallReport must be recoverable with its snapshot")
	}
	if msg := err.Error(); msg == "" {
		t.Error("empty error message")
	}
}

func TestWatchdogInterval(t *testing.T) {
	if (Watchdog{}).Enabled() {
		t.Error("zero watchdog should be disabled")
	}
	w := Watchdog{StallCycles: 1000}
	if !w.Enabled() || w.Interval() != 250 {
		t.Errorf("interval = %d, want 250", w.Interval())
	}
	w = Watchdog{StallCycles: 2, CheckEvery: 7}
	if w.Interval() != 7 {
		t.Errorf("explicit interval = %d, want 7", w.Interval())
	}
	if (Watchdog{StallCycles: 1}).Interval() != 1 {
		t.Error("interval floor of 1 violated")
	}
}
