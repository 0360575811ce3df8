package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"locality/internal/core"
	"locality/internal/experiments"
	"locality/internal/replay"
	"locality/internal/stats"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	return rows
}

func TestWriteValidationCSV(t *testing.T) {
	v, err := experiments.RunValidation(context.Background(), tinyValidationConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteValidationCSV(&buf, v); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 { // header + 2 mappings × 1 context
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "contexts" || rows[1][1] != "identity" {
		t.Errorf("unexpected layout: %v", rows[0:2])
	}
	// Numeric fields must round-trip.
	if _, err := strconv.ParseFloat(rows[1][2], 64); err != nil {
		t.Errorf("d column not numeric: %v", err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := stats.Series{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}}
	b := stats.Series{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "N", a, b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	want := [][]string{{"N", "a", "b"}, {"1", "10", "30"}, {"2", "20", "40"}}
	for i := range want {
		if strings.Join(rows[i], ",") != strings.Join(want[i], ",") {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

func TestWriteSeriesCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "N"); err == nil {
		t.Error("no series should error")
	}
	a := stats.Series{Label: "a", X: []float64{1}, Y: []float64{1}}
	b := stats.Series{Label: "b", X: []float64{1, 2}, Y: []float64{1, 2}}
	if err := WriteSeriesCSV(&buf, "N", a, b); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestWriteFigure6And7CSV(t *testing.T) {
	f6, err := experiments.RunFigure6(experiments.Figure6Config{Sizes: []float64{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure6CSV(&buf, f6); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 3 || len(rows[0]) != 3 {
		t.Errorf("figure 6 csv shape wrong: %v", rows)
	}

	f7, err := experiments.RunFigure7(experiments.Figure7Config{Sizes: []float64{10, 100}, Contexts: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFigure7CSV(&buf, f7); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 || rows[0][1] != "p=1" || rows[0][2] != "p=2" {
		t.Errorf("figure 7 csv shape wrong: %v", rows)
	}
}

func TestWriteFigure8CSV(t *testing.T) {
	cases, err := experiments.RunFigure8(experiments.Figure8Config{Nodes: 1000, Contexts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure8CSV(&buf, cases); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 { // header + ideal + random
		t.Errorf("figure 8 csv rows = %d, want 3", len(rows))
	}
}

func TestWriteTable1CSV(t *testing.T) {
	rows, err := experiments.RunTable1(experiments.DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	parsed := parseCSV(t, &buf)
	if len(parsed) != 5 || parsed[1][0] != "2x faster" {
		t.Errorf("table 1 csv wrong: %v", parsed)
	}
}

func TestWriteUCLvsNUCLCSV(t *testing.T) {
	rows, err := experiments.RunUCLvsNUCL(experiments.UCLvsNUCLConfig{Sizes: core.LogSizes(64, 4096, 1), Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteUCLvsNUCLCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	parsed := parseCSV(t, &buf)
	if len(parsed) != len(rows)+1 {
		t.Errorf("ucl/nucl csv rows = %d, want %d", len(parsed), len(rows)+1)
	}
}

func fakeReplayFit() *experiments.ReplayFit {
	return &experiments.ReplayFit{
		Header: replay.Header{Radix: 4, Dims: 2, Contexts: 2, LineSize: 16,
			Warmup: 1000, Window: 4000, MappingName: "identity"},
		Curve: experiments.ContextValidation{
			P: 2,
			Points: []experiments.MappingPoint{
				{Mapping: "identity", D: 1, MeasuredD: 1.02, MsgSize: 11, MsgsPerTxn: 3.1,
					MsgTime: 120, MsgRate: 1.0 / 120, MsgRateModel: 0.0081,
					Tm: 42, TmModel: 41, InterTxnTime: 180, TxnLatency: 95, Utilization: 0.08},
				{Mapping: "random:1", D: 2.1, MeasuredD: 2.05, MsgSize: 11, MsgsPerTxn: 3.2,
					MsgTime: 135, MsgRate: 1.0 / 135, MsgRateModel: 0.0072,
					Tm: 61, TmModel: 60, InterTxnTime: 205, TxnLatency: 120, Utilization: 0.11},
			},
			S: 1.3, K: 115, R2: 0.99,
		},
		MeanMsgsPerTxn: 3.15,
		Params:         core.FittedParams{Sensitivity: 1.3, CriticalPath: 4.8, FixedBudget: 260},
	}
}

func TestWriteReplayFitCSV(t *testing.T) {
	r := fakeReplayFit()
	var buf bytes.Buffer
	if err := WriteReplayFitCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	parsed := parseCSV(t, &buf)
	if len(parsed) != len(r.Curve.Points)+1 {
		t.Fatalf("replay fit csv rows = %d, want %d", len(parsed), len(r.Curve.Points)+1)
	}
	header := parsed[0]
	if header[0] != "contexts" || header[len(header)-1] != "recovered_fixed_budget" {
		t.Errorf("unexpected replay fit csv header: %v", header)
	}
}
