package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"locality/internal/experiments"
)

// Table is the single text-rendering path for every experiment: a
// title line, optional preamble lines, a header, and string-formatted
// rows. Render lays the body out with the one tabwriter configuration
// every table in this repo uses, so column alignment and spacing are
// uniform across experiments by construction.
type Table struct {
	// Title is printed verbatim on its own line ("== ..." by
	// convention); empty means no title line.
	Title string
	// Pre lines are printed between the title and the aligned body.
	Pre []string
	// Header is the column header row.
	Header []string
	// Rows are the data rows; each must have len(Header) cells (a
	// trailing empty cell renders as an empty column).
	Rows [][]string
}

// Render writes the table followed by a blank separator line.
func (t Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	for _, line := range t.Pre {
		fmt.Fprintln(w, line)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Row builds one table row from fmt-style cells: strings pass through,
// everything else must already be formatted by the caller.
func row(cells ...string) []string { return cells }

// RenderValidation prints the Figures 3–5 data: one block per context
// count with the fitted application message curve and, per mapping,
// the measured and modeled message rates and latencies.
func RenderValidation(w io.Writer, v *experiments.Validation) {
	for _, cv := range v.Curves {
		t := Table{
			Title: fmt.Sprintf("== %d hardware context(s): application message curve Tm = %.3f·tm − %.1f (R²=%.4f)",
				cv.P, cv.S, cv.K, cv.R2),
			Header: []string{"mapping", "d", "B", "g", "tm", "rm(sim)", "rm(model)", "Tm(sim)", "Tm(model)", "Tm(mix)", "tt", "Tt", "util"},
		}
		for _, pt := range cv.Points {
			t.Rows = append(t.Rows, row(
				pt.Mapping, fmt.Sprintf("%.2f", pt.D), fmt.Sprintf("%.1f", pt.MsgSize),
				fmt.Sprintf("%.2f", pt.MsgsPerTxn), fmt.Sprintf("%.1f", pt.MsgTime),
				fmt.Sprintf("%.5f", pt.MsgRate), fmt.Sprintf("%.5f", pt.MsgRateModel),
				fmt.Sprintf("%.1f", pt.Tm), fmt.Sprintf("%.1f", pt.TmModel), fmt.Sprintf("%.1f", pt.TmModelMix),
				fmt.Sprintf("%.1f", pt.InterTxnTime), fmt.Sprintf("%.1f", pt.TxnLatency),
				fmt.Sprintf("%.3f", pt.Utilization)))
		}
		t.Render(w)
	}
}

// RenderFigure6 prints Th against machine size for both grains.
func RenderFigure6(w io.Writer, r experiments.Figure6Result) {
	t := Table{
		Title:  fmt.Sprintf("== Figure 6: per-hop latency Th vs machine size (limit Th∞ = %.2f N-cycles)", r.Limit),
		Header: []string{"N", "Th(base grain)", "Th(10x grain)", "fraction of limit (base)"},
	}
	for i := range r.Base.X {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%.0f", r.Base.X[i]), fmt.Sprintf("%.2f", r.Base.Y[i]),
			fmt.Sprintf("%.2f", r.Big.Y[i]), fmt.Sprintf("%.2f", r.Base.Y[i]/r.Limit)))
	}
	t.Render(w)
}

// RenderFigure7 prints the expected-gain curves.
func RenderFigure7(w io.Writer, r experiments.Figure7Result) {
	t := Table{
		Title:  "== Figure 7: expected gain from exploiting physical locality vs machine size",
		Header: []string{"N"},
	}
	for _, c := range r.Curves {
		t.Header = append(t.Header, fmt.Sprintf("gain p=%d", c.P))
	}
	if len(r.Curves) > 0 {
		for i := range r.Curves[0].Gains.X {
			cells := []string{fmt.Sprintf("%.0f", r.Curves[0].Gains.X[i])}
			for _, c := range r.Curves {
				cells = append(cells, fmt.Sprintf("%.2f", c.Gains.Y[i]))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	t.Render(w)
}

// RenderFigure8 prints the issue-time decompositions.
func RenderFigure8(w io.Writer, cases []experiments.Figure8Case) {
	t := Table{
		Title:  "== Figure 8: inter-transaction time decomposition at N=1000 (P-cycles)",
		Header: []string{"contexts", "mapping", "d", "variable msg", "fixed msg", "fixed txn", "CPU", "total tt"},
	}
	for _, c := range cases {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%d", c.P), c.Mapping, fmt.Sprintf("%.2f", c.D),
			fmt.Sprintf("%.1f", c.Breakdown.VariableMessage), fmt.Sprintf("%.1f", c.Breakdown.FixedMessage),
			fmt.Sprintf("%.1f", c.Breakdown.FixedTransaction), fmt.Sprintf("%.1f", c.Breakdown.CPU),
			fmt.Sprintf("%.1f", c.IssueTime)))
	}
	t.Render(w)
}

// RenderTable1 prints the network-speed sensitivity table.
func RenderTable1(w io.Writer, rows []experiments.Table1Row) {
	t := Table{
		Title:  "== Table 1: impact of relative network speed on expected gains (1 context)",
		Header: []string{"network speed", "gain at 10^3 processors", "gain at 10^6 processors"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(r.Label, fmt.Sprintf("%.1f", r.Gain1e3), fmt.Sprintf("%.1f", r.Gain1e6)))
	}
	t.Render(w)
}

// RenderTolerance prints the latency-tolerance comparison.
func RenderTolerance(w io.Writer, rows []experiments.ToleranceRow) {
	t := Table{
		Title:  "== Latency tolerance mechanisms (extension): blocking vs prefetching vs multithreading",
		Header: []string{"mechanism", "tt (P-cycles)", "Tm (N-cycles)", "speedup vs blocking"},
	}
	if len(rows) > 0 {
		t.Pre = []string{fmt.Sprintf("   mapping %s, d = %.2f hops", rows[0].Mapping, rows[0].D)}
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(
			r.Label, fmt.Sprintf("%.1f", r.InterTxnTime), fmt.Sprintf("%.1f", r.MsgLatency),
			fmt.Sprintf("%.2fx", r.SpeedupVsBase)))
	}
	t.Render(w)
}

// RenderDimensionStudy prints the dimension sweep.
func RenderDimensionStudy(w io.Writer, nodes float64, rows []experiments.DimensionRow) {
	t := Table{
		Title:  fmt.Sprintf("== Network dimension study (extension) at N = %.0f processors", nodes),
		Header: []string{"n", "d(random)", "Th limit", "locality gain", "tt(random, P-cycles)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%d", r.Dims), fmt.Sprintf("%.1f", r.RandomDistance),
			fmt.Sprintf("%.2f", r.HopLimit), fmt.Sprintf("%.2f", r.Gain),
			fmt.Sprintf("%.1f", r.RandomIssueTime)))
	}
	t.Render(w)
}

// RenderGainSim prints the simulation-vs-model gain comparison.
func RenderGainSim(w io.Writer, rows []experiments.GainSimRow) {
	t := Table{
		Title:  "== Measured vs modeled locality gain at simulable machine sizes",
		Header: []string{"radix", "N", "d(random)", "gain (simulated)", "gain (model)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%d", r.Radix), fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%.2f", r.RandomD),
			fmt.Sprintf("%.2f", r.MeasuredGain), fmt.Sprintf("%.2f", r.ModelGain)))
	}
	t.Render(w)
}

// RenderContentionShare prints the contention-share table.
func RenderContentionShare(w io.Writer, rows []experiments.ContentionRow) {
	t := Table{
		Title:  "== Contention share of message latency under random placement (Section 5 cross-check)",
		Header: []string{"N", "d", "Tm", "Tm(zero-load)", "contention share", "utilization"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%.0f", r.Nodes), fmt.Sprintf("%.1f", r.D), fmt.Sprintf("%.1f", r.Tm),
			fmt.Sprintf("%.1f", r.TmZeroLoad), fmt.Sprintf("%.0f%%", r.ContentionShare*100),
			fmt.Sprintf("%.3f", r.Utilization)))
	}
	t.Render(w)
}

// RenderUCLvsNUCL prints the organization comparison.
func RenderUCLvsNUCL(w io.Writer, rows []experiments.UCLvsNUCLRow) {
	t := Table{
		Title:  "== UCL vs NUCL: message latency and relative performance by organization",
		Header: []string{"N", "Tm torus+ideal", "Tm torus+random", "Tm indirect (UCL)", "perf random/ideal", "perf UCL/ideal"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, row(
			fmt.Sprintf("%.0f", r.Nodes), fmt.Sprintf("%.1f", r.TorusIdeal), fmt.Sprintf("%.1f", r.TorusRandom),
			fmt.Sprintf("%.1f", r.Indirect), fmt.Sprintf("%.2f", r.RelRandom), fmt.Sprintf("%.2f", r.RelIndirect)))
	}
	t.Render(w)
}

// RenderReplayFit prints the trace-replay fitting study: the trace
// provenance, the recovered application parameters, and the replayed
// mapping sweep with the model's predictions at each point.
func RenderReplayFit(w io.Writer, r *experiments.ReplayFit) {
	hdr := r.Header
	t := Table{
		Title: fmt.Sprintf("== Trace replay fit (%d contexts): Tm = %.3f·tm − %.1f (R²=%.4f)",
			r.Curve.P, r.Curve.S, r.Curve.K, r.Curve.R2),
		Pre: []string{
			fmt.Sprintf("   trace: %d-ary %d-cube, %d contexts, captured under mapping %q",
				hdr.Radix, hdr.Dims, hdr.Contexts, hdr.MappingName),
			fmt.Sprintf("   recovered: s = %.3f, c = %.1f P-cycles, Tr+Tc+Tf = %.1f P-cycles (g = %.2f)",
				r.Params.Sensitivity, r.Params.CriticalPath, r.Params.FixedBudget, r.MeanMsgsPerTxn),
		},
		Header: []string{"mapping", "d", "d(replay)", "B", "g", "tm", "rm(sim)", "rm(model)", "Tm(sim)", "Tm(model)", "tt", "Tt", "util"},
	}
	for _, pt := range r.Curve.Points {
		t.Rows = append(t.Rows, row(
			pt.Mapping, fmt.Sprintf("%.2f", pt.D), fmt.Sprintf("%.2f", pt.MeasuredD),
			fmt.Sprintf("%.1f", pt.MsgSize), fmt.Sprintf("%.2f", pt.MsgsPerTxn),
			fmt.Sprintf("%.1f", pt.MsgTime),
			fmt.Sprintf("%.5f", pt.MsgRate), fmt.Sprintf("%.5f", pt.MsgRateModel),
			fmt.Sprintf("%.1f", pt.Tm), fmt.Sprintf("%.1f", pt.TmModel),
			fmt.Sprintf("%.1f", pt.InterTxnTime), fmt.Sprintf("%.1f", pt.TxnLatency),
			fmt.Sprintf("%.3f", pt.Utilization)))
	}
	t.Render(w)
}
