package machine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"locality/internal/mapping"
	"locality/internal/sim"
	"locality/internal/topology"
	"locality/internal/workload"
)

// largeConfig builds a comm-light 256×256 (65,536-node) machine.
// DefaultConfig gives it a line per state word; with the sparse cache,
// that costs only the lines actually touched.
func largeConfig(contexts int) Config {
	tor := topology.MustNew(256, 2)
	cfg := DefaultConfig(tor, mapping.Identity(tor), contexts)
	cfg.ReadCompute, cfg.WriteCompute = 1000, 1000
	return cfg
}

// TestLargeMachineSmoke is the large-N viability gate: a 65,536-node
// machine must construct, run a short comm-light workload through its
// first communication burst, and stay inside a wall-clock and heap
// budget. Before the active-set fabric and sparse per-node state this
// configuration was not practically runnable — construction alone
// swept every router each cycle and dense caches made the required
// 65,536×65,536-line configuration impossible to hold in memory.
func TestLargeMachineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N smoke test skipped in -short mode")
	}
	const (
		wallBudget = 90 * time.Second
		heapBudget = 2 << 30 // bytes
	)
	start := time.Now()
	mach, err := New(largeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// 1,500 P-cycles covers the initial compute stretch (skipped by
	// the event kernel) plus the first synchronized read burst — the
	// worst case for fabric occupancy on this workload.
	met := execCycles(t, mach, 1500)
	if met.Transactions == 0 || met.Messages == 0 {
		t.Fatalf("no traffic on the large machine: %+v", met)
	}
	if met.CyclesSkipped == 0 {
		t.Errorf("event kernel skipped nothing on a comm-light workload: %+v", met)
	}
	if err := mach.Network().Check(); err != nil {
		t.Error(err)
	}
	if elapsed := time.Since(start); elapsed > wallBudget {
		t.Errorf("large-N smoke took %v, budget %v", elapsed, wallBudget)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > heapBudget {
		t.Errorf("heap in use %d MB, budget %d MB", ms.HeapInuse>>20, heapBudget>>20)
	}
	t.Logf("65,536 nodes: %d txns, %d msgs, %d/%d cycles skipped, %.1fs, heap %d MB",
		met.Transactions, met.Messages, met.CyclesSkipped, met.PCycles, time.Since(start).Seconds(), ms.HeapInuse>>20)
}

// TestWorklistInvariantBothKernels drives a randomized, zero-locality
// workload under both the event and tick kernels, and
// verifies the fabric's structural invariants (flit conservation,
// occupancy masks, worklist exactness) after every execution chunk.
// This is the machine-level counterpart of netsim's whitebox worklist
// tests: it exercises activation and draining through the full stack
// (processor → protocol → fabric → delivery) rather than through
// synthetic Sends.
func TestWorklistInvariantBothKernels(t *testing.T) {
	kernels := []struct {
		name   string
		mutate func(*Config)
	}{
		{"event", nil},
		{"tick", func(c *Config) { c.Kernel = sim.KernelTick }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			tor := topology.MustNew(8, 2)
			cfg := DefaultConfig(tor, mapping.Random(tor, 3), 2)
			cfg.Workload = workload.UniformConfig{
				Graph:             tor,
				Map:               cfg.Mapping,
				Instances:         cfg.Contexts,
				LineSize:          cfg.LineSize,
				ReadCompute:       cfg.ReadCompute,
				WriteCompute:      cfg.WriteCompute,
				ReadsPerIteration: 4,
				Seed:              11,
			}
			if k.mutate != nil {
				k.mutate(&cfg)
			}
			mach, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for chunk := 0; chunk < 12; chunk++ {
				if _, err := mach.Execute(ctx, RunSpec{Cycles: 400}); err != nil {
					t.Fatal(err)
				}
				if err := mach.Network().Check(); err != nil {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
			}
			if met := execCycles(t, mach, 400); met.Transactions == 0 {
				t.Fatal("randomized workload produced no transactions")
			}
		})
	}
}
