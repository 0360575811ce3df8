package locality_test

// One benchmark per table and figure in the paper's evaluation
// section, each reporting the headline quantity it reproduces as a
// custom metric, plus micro-benchmarks for the solver and simulator
// and the ablations called out in DESIGN.md.
//
// Simulation-backed benchmarks (Figures 3–5) use reduced measurement
// windows so a full -bench=. run stays tractable; cmd/figures runs the
// paper-scale study.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/experiments"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/mapsel"
	"locality/internal/netsim"
	"locality/internal/sim"
	"locality/internal/telemetry"
	"locality/internal/topology"
)

// benchValidationConfig is the reduced validation study used by the
// Figure 3–5 benchmarks.
func benchValidationConfig() experiments.ValidationConfig {
	tor := topology.MustNew(8, 2)
	return experiments.ValidationConfig{
		Radix:    8,
		Dims:     2,
		Contexts: []int{1, 2, 4},
		Warmup:   2000,
		Window:   6000,
		Mappings: []*mapping.Mapping{
			mapping.Identity(tor),
			mapping.DiagonalShift(tor, 2),
			mapping.Random(tor, 1),
			mapping.Optimize(tor, 2, +1, 40),
		},
	}
}

// BenchmarkFigure3 regenerates the application message curves: the
// simulator sweep plus least-squares fits. Reported metric: the fitted
// latency-sensitivity slope for two contexts (paper: ≈2× the
// one-context slope).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.RunValidation(context.Background(), benchValidationConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v.Curves[1].S/v.Curves[0].S, "slope-ratio-p2/p1")
	}
}

// BenchmarkFigure4 regenerates message rate vs distance with model
// overlay. Reported metric: mean relative model error on message rate
// at one context (paper: within a few percent).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.RunValidation(context.Background(), benchValidationConfig())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		errs := v.Curves[0].RateErrors()
		for _, e := range errs {
			sum += e
		}
		b.ReportMetric(sum/float64(len(errs))*100, "rate-err-%")
	}
}

// BenchmarkFigure5 regenerates message latency vs distance with model
// overlay. Reported metric: mean absolute model error on message
// latency at one context in network cycles (paper: a few).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.RunValidation(context.Background(), benchValidationConfig())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		errs := v.Curves[0].LatencyErrors()
		for _, e := range errs {
			sum += e
		}
		b.ReportMetric(sum/float64(len(errs)), "latency-err-Ncycles")
	}
}

// BenchmarkFigure6 regenerates the per-hop latency saturation curve.
// Reported metric: the fraction of the Th limit reached at 4,096
// processors (paper: over 80% by a few thousand).
func BenchmarkFigure6(b *testing.B) {
	sizes := core.LogSizes(10, 1e6, 4)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(experiments.Figure6Config{Sizes: sizes})
		if err != nil {
			b.Fatal(err)
		}
		d := core.RandomMappingDistance(2, 4096)
		th, err := core.HopLatencyAtDistance(core.AlewifeLargeScale(2, 1), d)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(th/res.Limit, "frac-of-limit@4096")
	}
}

// BenchmarkFigure7 regenerates the expected-gain curves. Reported
// metric: the one-context gain at a million processors (paper: ≈41).
func BenchmarkFigure7(b *testing.B) {
	sizes := core.LogSizes(10, 1e6, 4)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7(experiments.Figure7Config{Sizes: sizes, Contexts: []int{1, 2, 4}})
		if err != nil {
			b.Fatal(err)
		}
		gains := res.Curves[0].Gains
		b.ReportMetric(gains.Y[gains.Len()-1], "gain-p1@1e6")
	}
}

// BenchmarkFigure8 regenerates the issue-time decompositions.
// Reported metric: the net ideal→random impact at one context
// (paper: about two).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := experiments.RunFigure8(experiments.Figure8Config{Nodes: 1000, Contexts: []int{1, 2, 4}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cases[1].IssueTime/cases[0].IssueTime, "impact-p1")
	}
}

// BenchmarkTable1 regenerates the network-speed sensitivity table.
// Reported metric: the gain growth from slowing the network 8×
// (paper: roughly 3×).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(experiments.DefaultTable1Config())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].Gain1e3/rows[0].Gain1e3, "8x-slowdown-gain-ratio")
	}
}

// BenchmarkUCLvsNUCL regenerates the organization-comparison extension.
// Reported metric: relative performance of the UCL organization at a
// million processors (the price of uniform latency).
func BenchmarkUCLvsNUCL(b *testing.B) {
	sizes := core.LogSizes(64, 1e6, 2)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunUCLvsNUCL(experiments.UCLvsNUCLConfig{Sizes: sizes, Contexts: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].RelIndirect, "ucl-rel-perf@1e6")
	}
}

// BenchmarkTolerance regenerates the latency-tolerance extension on a
// reduced machine. Reported metric: prefetching speedup over blocking.
func BenchmarkTolerance(b *testing.B) {
	cfg := experiments.ToleranceConfig{Radix: 8, Dims: 2, Warmup: 1500, Window: 5000, Mapping: "random:1"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTolerance(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].SpeedupVsBase, "prefetch-speedup")
	}
}

// BenchmarkDimensionStudy regenerates the mesh-dimension extension.
// Reported metric: locality gain at n=2 relative to n=4.
func BenchmarkDimensionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunDimensionStudy(experiments.DimensionConfig{Nodes: 4096, Dims: []int{2, 3, 4}, Contexts: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Gain/rows[2].Gain, "gain-ratio-n2/n4")
	}
}

// BenchmarkCombinedSolve measures the bisection solver.
func BenchmarkCombinedSolve(b *testing.B) {
	cfg := core.Alewife(2, 15.83)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedFormSolve measures the quadratic fast path.
func BenchmarkClosedFormSolve(b *testing.B) {
	cfg := core.AlewifeLargeScale(2, 15.83)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveClosedForm(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkStep measures raw fabric simulation throughput under
// sustained uniform random load on a 64-node torus, from a fabric
// already warmed into that load. Besides ns/op (one network cycle) it
// reports ns/flit-move, the cost per flit moved across a channel or
// into its destination node, and B/router, the warmed fabric's live
// heap after a collection divided by its routers; a single cycle
// (-benchtime=1x) already shows both.
func BenchmarkNetworkStep(b *testing.B) {
	tor := topology.MustNew(8, 2)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	nw, err := netsim.New(netsim.Config{Topo: tor, BufferDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	// Every flit of a delivered message has been ejected; flits of a
	// worm still ejecting are counted once its tail is.
	var ejected int64
	nw.SetDelivery(func(now int64, m *netsim.Message) { ejected += int64(m.Size) })
	moves := func() int64 { return nw.Snapshot().FlitHops + ejected }
	seed := 12345
	step := func(i int) {
		if i%40 == 0 {
			for v := 0; v < 64; v++ {
				seed = seed*1103515245 + 12345
				dst := (seed >> 16) & 63
				if dst == v {
					continue
				}
				if err := nw.Send(&netsim.Message{Src: v, Dst: dst, Size: 12}); err != nil {
					b.Fatal(err)
				}
			}
		}
		nw.Step()
	}
	const warmup = 400
	for i := 0; i < warmup; i++ {
		step(i)
	}
	runtime.GC()
	var warmed runtime.MemStats
	runtime.ReadMemStats(&warmed)
	perRouter := float64(int64(warmed.HeapAlloc)-int64(before.HeapAlloc)) / float64(tor.Nodes())
	moved := moves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warmup + i)
	}
	b.StopTimer()
	if n := moves() - moved; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/flit-move")
	}
	b.ReportMetric(perRouter, "B/router")
}

// BenchmarkMachineCycle measures full-system simulation speed: one
// processor cycle of a 64-node machine (processors + protocol + two
// network cycles).
func BenchmarkMachineCycle(b *testing.B) {
	tor := topology.MustNew(8, 2)
	mach, err := machine.New(machine.DefaultConfig(tor, mapping.Random(tor, 1), 2))
	if err != nil {
		b.Fatal(err)
	}
	runCycles(b, mach, 2000) // warm up into steady state
	b.ResetTimer()
	runCycles(b, mach, int64(b.N))
}

// BenchmarkMachineRun measures full-system throughput of the two
// execution kernels on contrasting workloads: idle-heavy (2000-cycle
// compute bursts, long quiescent spans the event kernel can skip) and
// comm-heavy (the default 20-cycle grain, traffic nearly always in
// flight). Reported metrics: simulated P-cycles per wall-clock second,
// the window's skip ratio, and allocations per P-cycle (allocs/op: an
// op is one P-cycle). The event kernel's idle-heavy
// cycles/s should be well over 2× the tick kernel's; on comm-heavy
// workloads the two converge, since a busy fabric makes every cycle
// an event.
func BenchmarkMachineRun(b *testing.B) {
	tor := topology.MustNew(8, 2)
	workloads := []struct {
		name    string
		compute int
	}{
		{"idle-heavy", 2000},
		{"comm-heavy", 20},
	}
	for _, wl := range workloads {
		for _, mode := range []sim.KernelKind{sim.KernelTick, sim.KernelEvent} {
			b.Run(wl.name+"/kernel="+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				cfg := machine.DefaultConfig(tor, mapping.Random(tor, 1), 2)
				cfg.ReadCompute, cfg.WriteCompute = wl.compute, wl.compute
				cfg.Kernel = mode
				mach, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				runCycles(b, mach, 2000) // warm up into steady state
				mach.ResetStats()
				b.ResetTimer()
				runCycles(b, mach, int64(b.N))
				b.StopTimer()
				met := mach.Measure()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
				b.ReportMetric(met.SkipRatio(), "skip-ratio")
			})
		}
	}
}

// BenchmarkAblationBufferDepth quantifies how switch buffering shifts
// latency between source queueing and the fabric (the wormhole
// head-of-line blocking discussion in EXPERIMENTS.md). Reported
// metric: total message latency.
func BenchmarkAblationBufferDepth(b *testing.B) {
	tor := topology.MustNew(8, 2)
	for _, depth := range []int{2, 8, 32} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(tor, mapping.Random(tor, 1), 2)
				cfg.BufferDepth = depth
				mach, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mach.Execute(context.Background(), machine.RunSpec{Warmup: 2000, Window: 6000})
				if err != nil {
					b.Fatal(err)
				}
				met := res.Metrics
				b.ReportMetric(met.MsgLatency, "Tm-Ncycles")
			}
		})
	}
}

// BenchmarkAblationDirectoryPointers quantifies the LimitLESS
// software-extension cost: full-map vs hardware pointer budgets below
// the workload's sharer count. Reported metric: inter-transaction
// issue time.
func BenchmarkAblationDirectoryPointers(b *testing.B) {
	tor := topology.MustNew(8, 2)
	for _, ptrs := range []int{0, 5, 2, 1} {
		b.Run(benchName("ptrs", ptrs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(tor, mapping.Identity(tor), 1)
				cfg.HWPointers = ptrs
				mach, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mach.Execute(context.Background(), machine.RunSpec{Warmup: 2000, Window: 6000})
				if err != nil {
					b.Fatal(err)
				}
				met := res.Metrics
				b.ReportMetric(met.InterTxnTime, "tt-Pcycles")
			}
		})
	}
}

// BenchmarkAblationChannelContention quantifies the node-channel
// contention extension's effect on model predictions (the term the
// paper's large-scale studies omit). Reported metric: predicted gain
// at 10^3 processors.
func BenchmarkAblationChannelContention(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Alewife(1, 1)
				cfg.Net.NodeChannelContention = on
				g, err := core.ExpectedGain(cfg, 1000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(g.Gain, "gain@1e3")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

// runCycles advances a machine inside a benchmark loop.
func runCycles(b *testing.B, mach *machine.Machine, n int64) {
	if _, err := mach.Execute(context.Background(), machine.RunSpec{Cycles: n}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepGrid measures the default cmd/sweep grid — the suite
// mapping set at one context on the 64-node machine — through the
// experiment engine at one and four workers. The workers=4/workers=1
// wall-clock ratio is the engine's speedup on this host; on a
// single-core container the two are equal, and the ratio approaches
// the worker count as cores become available (cells are independent
// full-system simulations with no shared state).
func BenchmarkSweepGrid(b *testing.B) {
	tor := topology.MustNew(8, 2)
	maps, err := mapsel.List(tor, "suite")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells := make([]engine.Cell[machine.Metrics], len(maps))
				for j, m := range maps {
					m := m
					cells[j] = engine.Cell[machine.Metrics]{
						Key: m.Name,
						Run: func(ctx context.Context) (machine.Metrics, error) {
							mach, err := machine.New(machine.DefaultConfig(tor, m, 1))
							if err != nil {
								return machine.Metrics{}, err
							}
							res, err := mach.Execute(ctx, machine.RunSpec{Warmup: 4000, Window: 12000})
							return res.Metrics, err
						},
					}
				}
				results, stats := engine.Grid(context.Background(), cells,
					engine.Options[machine.Metrics]{Exec: engine.Exec{Workers: workers}})
				if err := engine.FirstError(results); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Cells), "cells")
			}
		})
	}
}

// telemetryBudget is the design bound on what the telemetry stack may
// cost the comm-heavy workload: 1 - on/off cycles per second.
const telemetryBudget = 0.05

// BenchmarkTelemetryOverhead measures what the full telemetry stack —
// registry gauges, per-distance latency histograms, and kernel cycle
// attribution — costs on the workloads where it matters most. Each
// iteration is one rep: a machine with telemetry off and then one with
// it on each settle for 2,000 P-cycles and are timed over the next
// 10,000. Reported metrics: each side's best rep, in simulated P-cycles
// per wall-clock second, and the overhead between them; -benchtime=2x
// takes the best of two reps. On the comm-heavy workload nearly every
// cycle executes and every message feeds a histogram, so it is the
// worst case, and the benchmark fails when its overhead exceeds
// telemetryBudget.
func BenchmarkTelemetryOverhead(b *testing.B) {
	tor := topology.MustNew(8, 2)
	const settle, cycles = 2000, 10000
	rep := func(b *testing.B, compute int, telem bool) float64 {
		cfg := machine.DefaultConfig(tor, mapping.Random(tor, 1), 2)
		cfg.ReadCompute, cfg.WriteCompute = compute, compute
		if telem {
			cfg.Telemetry = telemetry.New()
		}
		mach, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runCycles(b, mach, settle)
		mach.ResetStats()
		// Collect earlier machines now: otherwise the second side of a
		// rep pays, inside its timed section, for the first side's
		// garbage.
		runtime.GC()
		t0 := time.Now()
		runCycles(b, mach, cycles)
		return cycles / time.Since(t0).Seconds()
	}
	workloads := []struct {
		name    string
		compute int
		gated   bool
	}{
		{"comm-heavy", 20, true},
		{"idle-heavy", 2000, false},
	}
	for _, wl := range workloads {
		// off and on hold the last run's best reps: the framework may
		// call the function more than once, and its last call is the
		// one it reports.
		var off, on float64
		b.Run(wl.name, func(b *testing.B) {
			off, on = 0, 0
			for i := 0; i < b.N; i++ {
				off = max(off, rep(b, wl.compute, false))
				on = max(on, rep(b, wl.compute, true))
			}
			b.ReportMetric(off, "off-cycles/s")
			b.ReportMetric(on, "on-cycles/s")
			b.ReportMetric(100*(1-on/off), "overhead-%")
		})
		if wl.gated && off > 0 && 1-on/off > telemetryBudget {
			b.Errorf("%s: telemetry overhead %.2f%% exceeds the %.0f%% budget (off %.0f, on %.0f cycles/s)",
				wl.name, 100*(1-on/off), 100*telemetryBudget, off, on)
		}
	}
}
