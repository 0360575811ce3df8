// Package report exports experiment results as CSV files so the
// figures can be re-plotted with external tools. One writer per
// experiment; all writers emit a header row and use full float
// precision.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"locality/internal/experiments"
	"locality/internal/stats"
)

func format(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeAll(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return fmt.Errorf("report: writing csv: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// WriteValidationCSV exports the Figures 3–5 study: one row per
// (context count, mapping) with every measured and modeled quantity.
func WriteValidationCSV(w io.Writer, v *experiments.Validation) error {
	rows := [][]string{{
		"contexts", "mapping", "d", "measured_d", "B", "g",
		"tm", "rm_sim", "rm_model", "rm_model_mix", "Tm_sim", "Tm_model", "Tm_model_mix",
		"tt", "Tt", "utilization", "fit_s", "fit_k", "fit_r2",
	}}
	for _, cv := range v.Curves {
		for _, pt := range cv.Points {
			rows = append(rows, []string{
				strconv.Itoa(cv.P), pt.Mapping, format(pt.D), format(pt.MeasuredD),
				format(pt.MsgSize), format(pt.MsgsPerTxn),
				format(pt.MsgTime), format(pt.MsgRate), format(pt.MsgRateModel), format(pt.MsgRateModelMix),
				format(pt.Tm), format(pt.TmModel), format(pt.TmModelMix),
				format(pt.InterTxnTime), format(pt.TxnLatency), format(pt.Utilization),
				format(cv.S), format(cv.K), format(cv.R2),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteSeriesCSV exports one or more aligned series (shared X values),
// as used by Figures 6 and 7.
func WriteSeriesCSV(w io.Writer, xLabel string, series ...stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("report: series %q has %d points, want %d", s.Label, s.Len(), n)
		}
	}
	header := []string{xLabel}
	for _, s := range series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for i := 0; i < n; i++ {
		row := []string{format(series[0].X[i])}
		for _, s := range series {
			row = append(row, format(s.Y[i]))
		}
		rows = append(rows, row)
	}
	return writeAll(w, rows)
}

// WriteFigure6CSV exports the Th-vs-N curves.
func WriteFigure6CSV(w io.Writer, r experiments.Figure6Result) error {
	return WriteSeriesCSV(w, "N", r.Base, r.Big)
}

// WriteFigure7CSV exports the gain curves.
func WriteFigure7CSV(w io.Writer, r experiments.Figure7Result) error {
	series := make([]stats.Series, len(r.Curves))
	for i, c := range r.Curves {
		series[i] = c.Gains
	}
	return WriteSeriesCSV(w, "N", series...)
}

// WriteFigure8CSV exports the issue-time decompositions.
func WriteFigure8CSV(w io.Writer, cases []experiments.Figure8Case) error {
	rows := [][]string{{
		"contexts", "mapping", "d",
		"variable_msg", "fixed_msg", "fixed_txn", "cpu", "tt",
	}}
	for _, c := range cases {
		rows = append(rows, []string{
			strconv.Itoa(c.P), c.Mapping, format(c.D),
			format(c.Breakdown.VariableMessage), format(c.Breakdown.FixedMessage),
			format(c.Breakdown.FixedTransaction), format(c.Breakdown.CPU),
			format(c.IssueTime),
		})
	}
	return writeAll(w, rows)
}

// WriteTable1CSV exports the network-speed sensitivity table.
func WriteTable1CSV(w io.Writer, rows []experiments.Table1Row) error {
	out := [][]string{{"network_speed", "speed_factor", "gain_1e3", "gain_1e6"}}
	for _, r := range rows {
		out = append(out, []string{r.Label, format(r.SpeedFactor), format(r.Gain1e3), format(r.Gain1e6)})
	}
	return writeAll(w, out)
}

// WriteUCLvsNUCLCSV exports the organization comparison.
func WriteUCLvsNUCLCSV(w io.Writer, rows []experiments.UCLvsNUCLRow) error {
	out := [][]string{{"N", "Tm_torus_ideal", "Tm_torus_random", "Tm_indirect", "rel_random", "rel_indirect"}}
	for _, r := range rows {
		out = append(out, []string{
			format(r.Nodes), format(r.TorusIdeal), format(r.TorusRandom),
			format(r.Indirect), format(r.RelRandom), format(r.RelIndirect),
		})
	}
	return writeAll(w, out)
}

// WriteReplayFitCSV exports the trace-replay fitting study: one row
// per replayed mapping with the measured point and model predictions,
// each row carrying the fitted curve and recovered parameters.
func WriteReplayFitCSV(w io.Writer, r *experiments.ReplayFit) error {
	rows := [][]string{{
		"contexts", "mapping", "d", "measured_d", "B", "g",
		"tm", "rm_sim", "rm_model", "Tm_sim", "Tm_model", "tt", "Tt", "utilization",
		"fit_s", "fit_k", "fit_r2", "recovered_c", "recovered_fixed_budget",
	}}
	for _, pt := range r.Curve.Points {
		rows = append(rows, []string{
			strconv.Itoa(r.Curve.P), pt.Mapping, format(pt.D), format(pt.MeasuredD),
			format(pt.MsgSize), format(pt.MsgsPerTxn),
			format(pt.MsgTime), format(pt.MsgRate), format(pt.MsgRateModel),
			format(pt.Tm), format(pt.TmModel),
			format(pt.InterTxnTime), format(pt.TxnLatency), format(pt.Utilization),
			format(r.Curve.S), format(r.Curve.K), format(r.Curve.R2),
			format(r.Params.CriticalPath), format(r.Params.FixedBudget),
		})
	}
	return writeAll(w, rows)
}
