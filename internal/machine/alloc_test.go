package machine

import (
	"context"
	"testing"

	"locality/internal/mapping"
	"locality/internal/topology"
)

// TestExecuteAllocationBudget is the whole-machine counterpart of
// netsim's TestStepSteadyStateDoesNotAllocate. On the comm-heavy 8×8
// machine, once the protocol's event queue, the fabric's packet free
// list and the injection queues have grown to their working size, a
// completed transaction may allocate little beyond the Transaction
// itself and its waiter list: at most 4 allocations.
func TestExecuteAllocationBudget(t *testing.T) {
	const budget = 4.0
	tor := topology.MustNew(8, 2)
	mach, err := New(DefaultConfig(tor, mapping.Random(tor, 1), 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mach.Execute(ctx, RunSpec{Cycles: 4000}); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	before := mach.Protocol().Snapshot().Transactions
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := mach.Execute(ctx, RunSpec{Cycles: 1000}); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun calls the function once more, unmeasured, first.
	txns := float64(mach.Protocol().Snapshot().Transactions-before) / (runs + 1)
	if txns < 100 {
		t.Fatalf("only %.0f transactions per 1,000 P-cycles: the machine is not comm-heavy", txns)
	}
	if per := allocs / txns; per > budget {
		t.Errorf("%.2f allocations per completed transaction (%.0f per 1,000 P-cycles, %.0f transactions), budget %.0f",
			per, allocs, txns, budget)
	} else {
		t.Logf("%.2f allocations per completed transaction (%.0f transactions per 1,000 P-cycles)", per, txns)
	}
}
