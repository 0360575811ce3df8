package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locality/internal/experiments"
	"locality/internal/mapping"
	"locality/internal/topology"
)

// tinyValidationConfig is the smallest useful validation study, for
// exercising writers and renderers rather than model claims.
func tinyValidationConfig() experiments.ValidationConfig {
	tor := topology.MustNew(4, 2)
	return experiments.ValidationConfig{
		Radix: 4, Dims: 2, Contexts: []int{1}, Warmup: 500, Window: 2000,
		Mappings: []*mapping.Mapping{mapping.Identity(tor), mapping.Random(tor, 1)},
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	Table{
		Title:  "== demo",
		Pre:    []string{"   preamble"},
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}, {"333", "4"}},
	}.Render(&buf)
	out := buf.String()
	lines := strings.Split(out, "\n")
	if lines[0] != "== demo" || lines[1] != "   preamble" {
		t.Errorf("title/preamble wrong:\n%s", out)
	}
	// tabwriter alignment: both data rows share the first column width.
	if !strings.HasPrefix(lines[3], "1    ") || !strings.HasPrefix(lines[4], "333  ") {
		t.Errorf("column alignment wrong:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n\n") {
		t.Error("missing trailing separator line")
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer

	f6, err := experiments.RunFigure6(experiments.Figure6Config{Sizes: []float64{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure6(&buf, f6)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("figure 6 rendering missing header")
	}

	buf.Reset()
	f7, err := experiments.RunFigure7(experiments.Figure7Config{Sizes: []float64{10, 100}, Contexts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure7(&buf, f7)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("figure 7 rendering missing header")
	}

	buf.Reset()
	f8, err := experiments.RunFigure8(experiments.Figure8Config{Nodes: 1000, Contexts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure8(&buf, f8)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("figure 8 rendering missing header")
	}

	buf.Reset()
	t1, err := experiments.RunTable1(experiments.DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&buf, t1)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("table 1 rendering missing header")
	}

	buf.Reset()
	cont, err := experiments.RunContentionShare(experiments.ContentionConfig{Sizes: []float64{64, 1024}, Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	RenderContentionShare(&buf, cont)
	if !strings.Contains(buf.String(), "Contention share") {
		t.Error("contention rendering missing header")
	}

	buf.Reset()
	ucl, err := experiments.RunUCLvsNUCL(experiments.UCLvsNUCLConfig{Sizes: []float64{64, 1024}, Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	RenderUCLvsNUCL(&buf, ucl)
	if !strings.Contains(buf.String(), "UCL vs NUCL") {
		t.Error("ucl/nucl rendering missing header")
	}

	buf.Reset()
	dim, err := experiments.RunDimensionStudy(experiments.DimensionConfig{Nodes: 1024, Dims: []int{2, 3}, Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	RenderDimensionStudy(&buf, 1024, dim)
	if !strings.Contains(buf.String(), "dimension study") {
		t.Error("dimension rendering missing header")
	}
}

func TestRenderToleranceAndValidation(t *testing.T) {
	// Simulation-backed renderers, run on tiny machines.
	ctx := context.Background()
	var buf bytes.Buffer

	tol, err := experiments.RunTolerance(ctx, experiments.ToleranceConfig{
		Radix: 4, Dims: 2, Warmup: 500, Window: 2000, Mapping: "identity",
	})
	if err != nil {
		t.Fatal(err)
	}
	RenderTolerance(&buf, tol)
	if !strings.Contains(buf.String(), "Latency tolerance") {
		t.Error("tolerance rendering missing header")
	}

	buf.Reset()
	v, err := experiments.RunValidation(ctx, tinyValidationConfig())
	if err != nil {
		t.Fatal(err)
	}
	RenderValidation(&buf, v)
	if !strings.Contains(buf.String(), "application message curve") {
		t.Error("validation rendering missing header")
	}
}

func TestRenderGainSim(t *testing.T) {
	rows := []experiments.GainSimRow{{Radix: 4, Nodes: 16, RandomD: 2.1, MeasuredGain: 1.1, ModelGain: 1.12}}
	var buf bytes.Buffer
	RenderGainSim(&buf, rows)
	if !strings.Contains(buf.String(), "Measured vs modeled") {
		t.Error("rendering missing header")
	}
}

func TestRenderReplayFit(t *testing.T) {
	var buf bytes.Buffer
	RenderReplayFit(&buf, fakeReplayFit())
	out := buf.String()
	for _, want := range []string{"Trace replay fit", "recovered:", "identity", "random:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered replay fit missing %q:\n%s", want, out)
		}
	}
}

// TestModelFiguresGolden renders every model-only study at its default
// configuration, in `figures -fig` order 6, 7, 8, table1, uclnucl,
// dimensions, contention, and compares the text byte for byte with
// testdata/model-figures.txt, which holds that command's stdout. CSVs
// stay out: their full-precision floats may differ in the last bit on
// another architecture, while the rendered tables round them away.
func TestModelFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	f6, err := experiments.RunFigure6(experiments.DefaultFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure6(&buf, f6)
	f7, err := experiments.RunFigure7(experiments.DefaultFigure7Config())
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure7(&buf, f7)
	f8, err := experiments.RunFigure8(experiments.DefaultFigure8Config())
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure8(&buf, f8)
	t1, err := experiments.RunTable1(experiments.DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&buf, t1)
	ucl, err := experiments.RunUCLvsNUCL(experiments.DefaultUCLvsNUCLConfig())
	if err != nil {
		t.Fatal(err)
	}
	RenderUCLvsNUCL(&buf, ucl)
	dc := experiments.DefaultDimensionConfig()
	dim, err := experiments.RunDimensionStudy(dc)
	if err != nil {
		t.Fatal(err)
	}
	RenderDimensionStudy(&buf, dc.Nodes, dim)
	cont, err := experiments.RunContentionShare(experiments.DefaultContentionConfig())
	if err != nil {
		t.Fatal(err)
	}
	RenderContentionShare(&buf, cont)

	want, err := os.ReadFile(filepath.Join("testdata", "model-figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("rendered model figures differ from testdata/model-figures.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}
