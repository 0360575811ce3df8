package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"locality/internal/core"
	"locality/internal/mapping"
	"locality/internal/topology"
)

// fastValidationConfig is a scaled-down study (16 nodes, 3 mappings,
// short windows) so the unit tests stay quick; the full paper-scale
// study runs in bench_test.go and cmd/figures.
func fastValidationConfig() ValidationConfig {
	tor := topology.MustNew(4, 2)
	return ValidationConfig{
		Radix:    4,
		Dims:     2,
		Contexts: []int{1, 2},
		Warmup:   2000,
		Window:   8000,
		Mappings: []*mapping.Mapping{
			mapping.Identity(tor),
			mapping.DiagonalShift(tor, 2),
			mapping.Random(tor, 1),
		},
	}
}

func TestRunValidationStructure(t *testing.T) {
	v, err := RunValidation(context.Background(), fastValidationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Curves) != 2 {
		t.Fatalf("curves = %d, want 2", len(v.Curves))
	}
	for _, cv := range v.Curves {
		if len(cv.Points) != 3 {
			t.Fatalf("p=%d: points = %d, want 3", cv.P, len(cv.Points))
		}
		if cv.S <= 0 {
			t.Errorf("p=%d: fitted slope %g, want positive", cv.P, cv.S)
		}
		if cv.R2 < 0.8 {
			t.Errorf("p=%d: message curve fit R² = %g, want strongly linear", cv.P, cv.R2)
		}
		for _, pt := range cv.Points {
			if pt.MsgRateModel <= 0 || pt.TmModel <= 0 {
				t.Errorf("p=%d %s: missing model predictions", cv.P, pt.Mapping)
			}
			if pt.MsgRateModelMix <= 0 || pt.TmModelMix <= 0 {
				t.Errorf("p=%d %s: missing mixture predictions", cv.P, pt.Mapping)
			}
			// The histogram refinement stays in the mean model's
			// neighborhood (it only redistributes per-hop contention).
			if rel := math.Abs(pt.TmModelMix-pt.TmModel) / pt.TmModel; rel > 0.25 {
				t.Errorf("p=%d %s: mixture Tm %g vs mean Tm %g diverge %.0f%%",
					cv.P, pt.Mapping, pt.TmModelMix, pt.TmModel, rel*100)
			}
			if math.Abs(pt.MeasuredD-pt.D) > 0.5 {
				t.Errorf("p=%d %s: measured d %g far from mapping d %g", cv.P, pt.Mapping, pt.MeasuredD, pt.D)
			}
			if pt.MsgSize < 8 || pt.MsgSize > 24 {
				t.Errorf("p=%d %s: B = %g outside the control/data range", cv.P, pt.Mapping, pt.MsgSize)
			}
		}
	}
}

func TestValidationSlopeScalesWithContexts(t *testing.T) {
	// Figure 3's key property: the application message curve slope for
	// two contexts is roughly twice that for one context. The tiny
	// 4×4 machine compresses the distance range too much to measure
	// slopes reliably, so this test runs the paper-scale 64-node
	// machine with a reduced mapping set.
	if testing.Short() {
		t.Skip("paper-scale simulation; skipped with -short")
	}
	tor := topology.MustNew(8, 2)
	cfg := ValidationConfig{
		Radix:    8,
		Dims:     2,
		Contexts: []int{1, 2},
		Warmup:   3000,
		Window:   10000,
		Mappings: []*mapping.Mapping{
			mapping.Identity(tor),
			mapping.DiagonalShift(tor, 2),
			mapping.Random(tor, 1),
			mapping.Optimize(tor, 2, +1, 40),
		},
	}
	v, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := v.Curves[0].S, v.Curves[1].S
	ratio := s2 / s1
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("slope ratio p=2/p=1 = %.2f (s1=%.2f s2=%.2f), want ≈2", ratio, s1, s2)
	}
}

func TestValidationModelAgreement(t *testing.T) {
	// Section 3.3's claim at one context: predicted message rates track
	// measurements within a few percent and latencies within a few
	// network cycles. The scaled-down machine is noisier than the full
	// 64-node study, so the tolerances here are modestly wider.
	v, err := RunValidation(context.Background(), fastValidationConfig())
	if err != nil {
		t.Fatal(err)
	}
	cv := v.Curves[0] // p = 1
	var meanRate, meanLat float64
	for i := range cv.Points {
		meanRate += cv.RateErrors()[i]
		meanLat += cv.LatencyErrors()[i]
	}
	meanRate /= float64(len(cv.Points))
	meanLat /= float64(len(cv.Points))
	if meanRate > 0.15 {
		t.Errorf("p=1 mean rate error = %.1f%%, want within ~10%%", meanRate*100)
	}
	if meanLat > 8 {
		t.Errorf("p=1 mean latency error = %.1f N-cycles, want a few", meanLat)
	}
}

func TestRunValidationErrors(t *testing.T) {
	ctx := context.Background()
	cfg := fastValidationConfig()
	cfg.Radix = 1
	if _, err := RunValidation(ctx, cfg); err == nil {
		t.Error("invalid radix should error")
	}
	cfg = fastValidationConfig()
	cfg.Contexts = nil
	if _, err := RunValidation(ctx, cfg); err == nil {
		t.Error("empty context list should error")
	}
	cfg = fastValidationConfig()
	cfg.Mappings = []*mapping.Mapping{mapping.Identity(topology.MustNew(8, 2))}
	if _, err := RunValidation(ctx, cfg); err == nil {
		t.Error("mismatched mapping should error")
	}
}

func TestFigure6(t *testing.T) {
	sizes := core.LogSizes(100, 1e6, 1)
	res, err := RunFigure6(Figure6Config{Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Limit-9.78) > 0.05 {
		t.Errorf("limit = %g, want ≈9.8", res.Limit)
	}
	if res.Base.Len() != len(sizes) || res.Big.Len() != len(sizes) {
		t.Fatal("series lengths wrong")
	}
	for i := range sizes {
		if res.Base.Y[i] >= res.Limit {
			t.Errorf("base Th %g at N=%g exceeds the limit", res.Base.Y[i], sizes[i])
		}
		if res.Big.Y[i] > res.Base.Y[i]+1e-9 {
			t.Errorf("10x-grain Th should lag the base curve at N=%g", sizes[i])
		}
	}
	// >80% of the limit by a few thousand processors (base grain).
	if y, ok := res.Base.YAt(10000); !ok || y < 0.8*res.Limit {
		t.Errorf("Th at N=104 = %g, want ≥ 80%% of limit", y)
	}
}

func TestFigure7(t *testing.T) {
	fc := Figure7Config{Sizes: []float64{10, 1000, 1e6}, Contexts: []int{1, 2, 4}}
	res, err := RunFigure7(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatal("want three curves")
	}
	for _, c := range res.Curves {
		g10, _ := c.Gains.YAt(10)
		g1000, _ := c.Gains.YAt(1000)
		g1e6, _ := c.Gains.YAt(1e6)
		if g10 < 0.99 || g10 > 1.2 {
			t.Errorf("p=%d gain(10) = %g, want ≈1", c.P, g10)
		}
		if g1000 < 1.7 || g1000 > 3.0 {
			t.Errorf("p=%d gain(10^3) = %g, want ≈2", c.P, g1000)
		}
		if g1e6 < 35 || g1e6 > 75 {
			t.Errorf("p=%d gain(10^6) = %g, want tens", c.P, g1e6)
		}
	}
}

func TestFigure8(t *testing.T) {
	fc := Figure8Config{Nodes: 1000, Contexts: []int{1, 2, 4}}
	cases, err := RunFigure8(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("cases = %d, want 6", len(cases))
	}
	for i := 0; i < len(cases); i += 2 {
		ideal, random := cases[i], cases[i+1]
		if ideal.Mapping != "ideal" || random.Mapping != "random" {
			t.Fatal("case ordering wrong")
		}
		// Variable message overhead grows drastically ideal → random...
		if random.Breakdown.VariableMessage < 5*ideal.Breakdown.VariableMessage {
			t.Errorf("p=%d: variable overhead %g → %g, want a drastic increase",
				ideal.P, ideal.Breakdown.VariableMessage, random.Breakdown.VariableMessage)
		}
		// ...but the net impact stays around 2x.
		impact := random.IssueTime / ideal.IssueTime
		if impact < 1.5 || impact > 3.5 {
			t.Errorf("p=%d: net impact %g, want ≈2", ideal.P, impact)
		}
		// Fixed transaction overhead ≈ two-thirds of the fixed component.
		share := ideal.Breakdown.FixedTransaction / (ideal.Breakdown.FixedTransaction + ideal.Breakdown.FixedMessage)
		if share < 0.55 || share > 0.75 {
			t.Errorf("p=%d: fixed-txn share %g, want ≈2/3", ideal.P, share)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := RunTable1(DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	paper := []struct{ g3, g6 float64 }{
		{2.1, 41.2}, {3.1, 68.3}, {4.5, 101.6}, {5.9, 134.3},
	}
	if len(rows) != len(paper) {
		t.Fatalf("rows = %d, want %d", len(rows), len(paper))
	}
	for i, row := range rows {
		if rel := math.Abs(row.Gain1e3-paper[i].g3) / paper[i].g3; rel > 0.10 {
			t.Errorf("%s: gain(10^3) = %.2f, paper %.1f", row.Label, row.Gain1e3, paper[i].g3)
		}
		if rel := math.Abs(row.Gain1e6-paper[i].g6) / paper[i].g6; rel > 0.10 {
			t.Errorf("%s: gain(10^6) = %.2f, paper %.1f", row.Label, row.Gain1e6, paper[i].g6)
		}
	}
	// The monotone trend: slower networks, larger gains.
	for i := 1; i < len(rows); i++ {
		if rows[i].Gain1e3 <= rows[i-1].Gain1e3 || rows[i].Gain1e6 <= rows[i-1].Gain1e6 {
			t.Errorf("gains should grow as the network slows: %+v", rows)
		}
	}
}

func TestExperimentsParallelMatchesSequential(t *testing.T) {
	// The engine's determinism guarantee, end to end: the same study at
	// -workers=1 and -workers=8 must produce identical rows.
	seq := fastValidationConfig()
	par := fastValidationConfig()
	par.Workers = 8
	a, err := RunValidation(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunValidation(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Curves) != len(b.Curves) {
		t.Fatalf("curve counts differ: %d vs %d", len(a.Curves), len(b.Curves))
	}
	for i := range a.Curves {
		ca, cb := a.Curves[i], b.Curves[i]
		if ca.S != cb.S || ca.K != cb.K || ca.R2 != cb.R2 {
			t.Errorf("p=%d: fits differ between 1 and 8 workers", ca.P)
		}
		for j := range ca.Points {
			if !reflect.DeepEqual(ca.Points[j], cb.Points[j]) {
				t.Errorf("p=%d point %d differs between 1 and 8 workers", ca.P, j)
			}
		}
	}
}
