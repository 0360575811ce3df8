package machine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"locality/internal/engine"
	"locality/internal/replay"
	"locality/internal/sim"
	"locality/internal/workload"
)

const rtWarmup, rtWindow = 500, 2000

// captureCell runs one parity-grid cell with a capture sink attached
// and returns its metrics plus the finalized trace, re-encoded through
// the wire format so the test covers the serialized form, not just the
// in-memory structures.
func captureCell(t *testing.T, c parityCell) (Metrics, *replay.Trace) {
	t.Helper()
	cap := replay.NewCapture()
	tor, m := parityTopoMapping(c)
	cfg := DefaultConfig(tor, m, c.contexts)
	cfg.LocalDelay = c.localDelay
	cfg.Watchdog = c.watchdog
	cfg.Capture = cap
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := execMeasured(t, mach, rtWarmup, rtWindow)
	tr, err := mach.CapturedTrace(rtWarmup, rtWindow)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := replay.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := replay.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return met, decoded
}

// replayCell replays a trace under the given kernel mode with the same
// machine parameters the capture ran with.
func replayCell(t *testing.T, c parityCell, tr *replay.Trace, mode sim.KernelKind) Metrics {
	t.Helper()
	tor, m := parityTopoMapping(c)
	cfg := DefaultConfig(tor, m, c.contexts)
	cfg.LocalDelay = c.localDelay
	cfg.Watchdog = c.watchdog
	cfg.Kernel = mode
	cfg.Workload = workload.ReplayConfig{Trace: tr}
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return execMeasured(t, mach, tr.Header.Warmup, tr.Header.Window)
}

// TestCaptureReplayRoundTrip is the subsystem's end-to-end guarantee:
// a trace captured from a run, serialized, decoded, and replayed under
// either kernel reproduces the capturing run's Metrics and sweep CSV
// row byte for byte. The workload the machine executes is then fully
// determined by the trace file, which is what makes replay-based
// fitting trustworthy.
func TestCaptureReplayRoundTrip(t *testing.T) {
	for _, c := range parityGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			capMet, tr := captureCell(t, c)
			if tr.Records() == 0 {
				t.Fatal("capture recorded nothing; round trip is vacuous")
			}
			if got, want := tr.Header.MappingName, parityMappingName(c); got != want {
				t.Errorf("trace records mapping %q, want %q", got, want)
			}
			for _, mode := range []sim.KernelKind{sim.KernelEvent, sim.KernelTick} {
				repMet := replayCell(t, c, tr, mode)
				if got, want := normalizeKernelStats(repMet), normalizeKernelStats(capMet); !reflect.DeepEqual(got, want) {
					t.Errorf("%v replay Metrics differ from capture:\n capture: %+v\n replay:  %+v", mode, want, got)
				}
				if capRow, repRow := sweepRow(capMet), sweepRow(repMet); capRow != repRow {
					t.Errorf("%v replay sweep CSV row differs:\n capture: %s\n replay:  %s", mode, capRow, repRow)
				}
			}
		})
	}
}

// TestReplayGridWorkerInvariance runs the same replay grid through the
// experiment engine at several worker counts: the emitted CSV rows
// must be byte-identical regardless of parallelism, because each cell
// builds its own machine from the same immutable trace.
func TestReplayGridWorkerInvariance(t *testing.T) {
	base := parityCell{name: "identity/p2", mapName: "identity", contexts: 2}
	_, tr := captureCell(t, base)

	makeCells := func() []engine.Cell[string] {
		var cells []engine.Cell[string]
		for _, mode := range []sim.KernelKind{sim.KernelEvent, sim.KernelTick} {
			mode := mode
			cells = append(cells, engine.Cell[string]{
				Key: "replay/" + mode.String(),
				Run: func(ctx context.Context) (string, error) {
					tor, m := parityTopoMapping(base)
					cfg := DefaultConfig(tor, m, base.contexts)
					cfg.Kernel = mode
					cfg.Workload = workload.ReplayConfig{Trace: tr}
					mach, err := New(cfg)
					if err != nil {
						return "", err
					}
					met, err := execMeasuredChecked(ctx, mach, tr.Header.Warmup, tr.Header.Window)
					if err != nil {
						return "", err
					}
					return sweepRow(met), nil
				},
			})
		}
		return cells
	}

	var baseline []string
	for _, workers := range []int{1, 2, 4} {
		results, _ := engine.Grid(context.Background(), makeCells(), engine.Options[string]{Exec: engine.Exec{Workers: workers}})
		rows, err := engine.Rows(results)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = rows
			continue
		}
		if !reflect.DeepEqual(rows, baseline) {
			t.Errorf("workers=%d rows differ:\n baseline: %v\n got:      %v", workers, baseline, rows)
		}
	}
	if baseline[0] != baseline[1] {
		t.Errorf("event vs tick replay rows differ:\n event: %s\n tick:  %s", baseline[0], baseline[1])
	}
}
