package machine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"locality/internal/mapping"
	"locality/internal/sim"
	"locality/internal/telemetry"
	"locality/internal/topology"
)

// TestTelemetryIsObservationallyNeutral is the tentpole's core
// guarantee: attaching the full telemetry stack — registry, latency
// histograms, cycle attribution — changes nothing about the simulated
// machine. Metrics and sweep CSV rows must be bit-identical with
// telemetry on and off, under both kernels.
func TestTelemetryIsObservationallyNeutral(t *testing.T) {
	const warmup, window = 500, 2000
	for _, c := range parityGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []sim.KernelKind{sim.KernelTick, sim.KernelEvent} {
				run := func(reg *telemetry.Registry) Metrics {
					mach := buildParityMachine(t, c, mode, nil)
					mach.cfg.Telemetry = reg
					// Re-wire through the public path: rebuild with the
					// registry in the config.
					cfg := mach.cfg
					mach2, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return execMeasured(t, mach2, warmup, window)
				}
				plain := run(nil)
				instrumented := run(telemetry.New())
				if !reflect.DeepEqual(plain, instrumented) {
					t.Errorf("%v kernel: telemetry perturbed Metrics:\n off: %+v\n on:  %+v", mode, plain, instrumented)
				}
				if a, b := sweepRow(plain), sweepRow(instrumented); a != b {
					t.Errorf("%v kernel: sweep rows differ:\n off: %s\n on:  %s", mode, a, b)
				}
			}
		})
	}
}

// TestAttributionPartitionsExecutedCycles: across the parity grid and
// both kernels, the per-component charges plus the unforced pool must
// sum exactly to the kernel's executed-cycle count, and the breakdown
// must be non-trivial on a comm-active workload.
func TestAttributionPartitionsExecutedCycles(t *testing.T) {
	for _, c := range parityGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []sim.KernelKind{sim.KernelTick, sim.KernelEvent} {
				mach := buildParityMachine(t, c, mode, nil)
				cfg := mach.cfg
				cfg.Telemetry = telemetry.New()
				mach, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				execMeasured(t, mach, 500, 2000)
				attr := mach.Attribution()
				if got, want := attr.Total(), mach.KernelStats().Ticked; got != want {
					t.Errorf("%v kernel: attribution total %d != executed cycles %d (%s)", mode, got, want, attr)
				}
				if attr.Protocol == 0 || attr.Processors == 0 {
					t.Errorf("%v kernel: trivial attribution on an active machine: %s", mode, attr)
				}
			}
		})
	}
}

// TestAttributionZeroWithoutTelemetry: the accessor must be safe and
// zero-valued on an uninstrumented machine.
func TestAttributionZeroWithoutTelemetry(t *testing.T) {
	tor := topology.MustNew(4, 2)
	mach, err := New(DefaultConfig(tor, mapping.Identity(tor), 1))
	if err != nil {
		t.Fatal(err)
	}
	execMeasured(t, mach, 200, 500)
	if attr := mach.Attribution(); attr != (Attribution{}) {
		t.Errorf("attribution populated without telemetry: %s", attr)
	}
}

// TestLatencyHistogramsMeasureThOfD: the per-distance histogram vecs
// are the paper's measured Th(d) — on a mapped workload they must
// populate multiple distance keys, and every delivered message must be
// observed exactly once.
func TestLatencyHistogramsMeasureThOfD(t *testing.T) {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Random(tor, 1), 2)
	cfg.Telemetry = telemetry.New()
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	execCycles(t, mach, 4000)

	// Key 0 holds node-local deliveries (the fabric bypass, outside the
	// network's Delivered counter); every routed message travels ≥ 1 hop
	// and lands in keys 1.., which must tile the fabric's count exactly.
	var fabricObs, distances int64
	for k := 1; k < mach.msgLat.Keys(); k++ {
		if n := mach.msgLat.At(k).Count(); n > 0 {
			fabricObs += n
			distances++
		}
	}
	delivered := mach.Network().Snapshot().Delivered
	if fabricObs != delivered {
		t.Errorf("msg latency histogram holds %d routed observations, network delivered %d", fabricObs, delivered)
	}
	if distances < 2 {
		t.Errorf("message latencies populate %d distance keys, want ≥ 2 under a random mapping", distances)
	}
	if mach.msgLat.At(0).Count() == 0 {
		t.Error("no node-local deliveries observed at distance 0")
	}
	var txnObs int64
	for k := 0; k < mach.txnLat.Keys(); k++ {
		txnObs += mach.txnLat.At(k).Count()
	}
	if txnObs == 0 {
		t.Error("transaction latency histogram is empty after an active run")
	}
	if diam := tor.Diameter(); mach.msgLat.Keys() != diam+1 {
		t.Errorf("msg latency vec has %d keys, want diameter+1 = %d", mach.msgLat.Keys(), diam+1)
	}
}

// TestDiagSnapshotIncludesTelemetry: with telemetry on, the diagnostic
// snapshot embeds the attribution line and the registry dump; it must
// render under both kernels (S3: snapshot stability).
func TestDiagSnapshotIncludesTelemetry(t *testing.T) {
	for _, mode := range []sim.KernelKind{sim.KernelTick, sim.KernelEvent} {
		tor := topology.MustNew(4, 2)
		cfg := DefaultConfig(tor, mapping.Identity(tor), 1)
		cfg.Kernel = mode
		cfg.Telemetry = telemetry.New()
		mach, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		execCycles(t, mach, 1500)
		snap := mach.DiagSnapshot()
		for _, want := range []string{"cycle attribution:", "telemetry registry:", "kernel/cycles_ticked", "proto/", "net/"} {
			if !strings.Contains(snap, want) {
				t.Errorf("%v kernel: DiagSnapshot missing %q:\n%s", mode, want, snap)
			}
		}
		// Without telemetry the snapshot must not grow the new sections.
		cfg.Telemetry = nil
		bare, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		execCycles(t, bare, 1500)
		if s := bare.DiagSnapshot(); strings.Contains(s, "telemetry registry") {
			t.Errorf("%v kernel: uninstrumented DiagSnapshot mentions telemetry:\n%s", mode, s)
		}
	}
}

// TestMetricsSkipRatioEdges (S3): the ratio is well-defined at both
// degenerate corners.
func TestMetricsSkipRatioEdges(t *testing.T) {
	if got := (Metrics{}).SkipRatio(); got != 0 {
		t.Errorf("zero-cycle SkipRatio = %g, want 0", got)
	}
	if got := (Metrics{CyclesSkipped: 500}).SkipRatio(); got != 1 {
		t.Errorf("all-skipped SkipRatio = %g, want 1", got)
	}
	if got := (Metrics{CyclesTicked: 500}).SkipRatio(); got != 0 {
		t.Errorf("all-ticked SkipRatio = %g, want 0", got)
	}
	if got := (sim.Stats{Ticked: 1, Skipped: 3}).SkipRatio(); got != 0.75 {
		t.Errorf("mixed SkipRatio = %g, want 0.75", got)
	}
}

// TestStallReportParityAcrossKernels (S1): the skip-aware watchdog
// must detect the same stall at the same cycle with the same diagnosis
// regardless of execution kernel. A bound below every transaction's
// latency trips the protocol check on the first transaction; the event
// kernel skips cycles before it while the tick kernel executes them.
func TestStallReportParityAcrossKernels(t *testing.T) {
	run := func(mode sim.KernelKind) *StallReport {
		_, err := stallingMachine(t, mode, nil).Execute(context.Background(), RunSpec{Cycles: 5000})
		var rep *StallReport
		if !errors.As(err, &rep) {
			t.Fatalf("%v kernel: expected a StallReport, got %v", mode, err)
		}
		return rep
	}
	tick := run(sim.KernelTick)
	event := run(sim.KernelEvent)
	if tick.Component != "protocol" || tick.Cycle != 40 {
		t.Errorf("tick kernel reported a %s stall at cycle %d, want protocol at 40", tick.Component, tick.Cycle)
	}
	// Snapshot embeds kernel execution stats (and, when enabled,
	// telemetry), which legitimately differ; the diagnosis must not.
	if tick.Component != event.Component || tick.Cycle != event.Cycle ||
		tick.StalledFor != event.StalledFor || tick.Detail != event.Detail {
		t.Errorf("stall diagnosis differs across kernels:\n tick:  %+v\n event: %+v",
			*tick, *event)
	}
}
