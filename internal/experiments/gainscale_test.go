package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// gainScaleRows are the committed points of the simulated gain-vs-N
// curve: RunGainScale at DefaultGainScaleConfig, one radix per row.
// Any change to the simulator, the workload or the model that moves
// one of them is an output change and must update this table (and
// EXPERIMENTS.md, which quotes it). At a 4,000-cycle burst the gain is
// only 1.005–1.04, so these rows pin the simulator's scale, not the
// paper's locality claim.
var gainScaleRows = []GainScaleRow{
	{Radix: 32, Nodes: 1024, Compute: 4000, RandomD: 16.177734375,
		IdealInterTxn: 13407.528641571194, RandomInterTxn: 13473.684210526315,
		MeasuredGain: 1.0049342105263157, ModelGain: 1.0038392038535664},
	{Radix: 100, Nodes: 10000, Compute: 4000, RandomD: 49.9377,
		IdealInterTxn: 13436.345314074571, RandomInterTxn: 13619.33946203609,
		MeasuredGain: 1.013619339462036, ModelGain: 1.0124190475541521},
	{Radix: 320, Nodes: 102400, Compute: 4000, RandomD: 160.21439453125,
		IdealInterTxn: 13436.116122683286, RandomInterTxn: 14009.166153635679,
		MeasuredGain: 1.042649976058554, ModelGain: 1.0406378183443536},
}

// gainScaleTolerance bounds the relative divergence of measured from
// model gain at every size.
const gainScaleTolerance = 0.15

// checkGainScaleRow compares a fresh row with its committed one: the
// shape exactly, every float to a relative 1e-9 (another Go toolchain
// may round the model's arithmetic differently in the last place), and
// measured against model gain within gainScaleTolerance.
func checkGainScaleRow(tb testing.TB, got, want GainScaleRow) {
	tb.Helper()
	if got.Radix != want.Radix || got.Nodes != want.Nodes || got.Compute != want.Compute {
		tb.Fatalf("row shape = k=%d N=%d compute=%d, committed k=%d N=%d compute=%d",
			got.Radix, got.Nodes, got.Compute, want.Radix, want.Nodes, want.Compute)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"RandomD", got.RandomD, want.RandomD},
		{"IdealInterTxn", got.IdealInterTxn, want.IdealInterTxn},
		{"RandomInterTxn", got.RandomInterTxn, want.RandomInterTxn},
		{"MeasuredGain", got.MeasuredGain, want.MeasuredGain},
		{"ModelGain", got.ModelGain, want.ModelGain},
	} {
		if math.Abs(f.got-f.want) > 1e-9*math.Abs(f.want) {
			tb.Errorf("k=%d: %s = %v, committed %v", got.Radix, f.name, f.got, f.want)
		}
	}
	if rel := math.Abs(got.MeasuredGain-got.ModelGain) / got.ModelGain; rel > gainScaleTolerance {
		tb.Errorf("k=%d: measured gain %.4f vs model %.4f diverge %.1f%% (> %.0f%%)",
			got.Radix, got.MeasuredGain, got.ModelGain, 100*rel, 100*gainScaleTolerance)
	}
}

// TestRunGainScale reproduces the committed 1,024- and 10,000-node
// rows; BenchmarkGainScale adds the 102,400-node one.
func TestRunGainScale(t *testing.T) {
	cfg := DefaultGainScaleConfig()
	cfg.Radices = []int{32, 100}
	rows, err := RunGainScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Radices) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.Radices))
	}
	for i, r := range rows {
		checkGainScaleRow(t, r, gainScaleRows[i])
	}
}

// BenchmarkGainScale runs every committed row, one machine size per
// sub-benchmark, and checks it like TestRunGainScale. The k=320 cell
// is the 102,400-node point (about 100 s and 290 MB on a 2-CPU host),
// so run it alone:
//
//	go test -run '^$' -bench GainScale -benchtime 1x -v ./internal/experiments
//
// Reported metrics: the measured and model gains, and heap-MB, the
// in-use heap when the run returns (the simulation state only grows
// during a run, so this approximates its peak).
func BenchmarkGainScale(b *testing.B) {
	for _, want := range gainScaleRows {
		want := want
		b.Run(fmt.Sprintf("k=%d", want.Radix), func(b *testing.B) {
			cfg := DefaultGainScaleConfig()
			cfg.Radices = []int{want.Radix}
			var got GainScaleRow
			for i := 0; i < b.N; i++ {
				rows, err := RunGainScale(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				got = rows[0]
				checkGainScaleRow(b, got, want)
			}
			b.StopTimer()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(got.MeasuredGain, "gain")
			b.ReportMetric(got.ModelGain, "model-gain")
			b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap-MB")
		})
	}
}
