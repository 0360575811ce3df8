package report

import (
	"fmt"
	"io"
	"sort"

	"locality/internal/telemetry"
)

// This file turns a telemetry export into an automated bottleneck
// report: which substrate the simulated machine is actually spending
// its cycles in, what the latency tails say about why, and what knob
// to reach for first. The input is the attribution gauges the kernel
// maintains (attr/*: which component forced each executed cycle) plus
// the latency histograms, so the analysis works on any live snapshot —
// the /statusz page renders it mid-run — as well as on a finished
// run's final registry dump via simrun -analyze.

// Bottleneck is one ranked row of the report.
type Bottleneck struct {
	// Component names the substrate ("network", "protocol",
	// "processors", "unforced").
	Component string `json:"component"`
	// Cycles is the executed-cycle count attributed to the component;
	// Share is its fraction of all attributed cycles.
	Cycles float64 `json:"cycles"`
	Share  float64 `json:"share"`
	// Evidence cites the metric that corroborates the ranking ("p99
	// Tm(hops=8) = 214 cyc").
	Evidence string `json:"evidence,omitempty"`
	// Suggestion is the knob to try first when this component leads.
	Suggestion string `json:"suggestion,omitempty"`
}

// BottleneckReport is the analyzed view of one telemetry export.
type BottleneckReport struct {
	// Attributed is the total executed-cycle count across components;
	// zero means the export carried no attribution (event kernel, or a
	// run that has not ticked yet) and Items is empty.
	Attributed float64 `json:"attributed_cycles"`
	// Items is ranked by Share, largest first.
	Items []Bottleneck `json:"items"`
	// Notes are auxiliary observations (the kernel's skip ratio) that
	// contextualize the ranking.
	Notes []string `json:"notes,omitempty"`
}

// metricIndex gives the analyzer O(1) lookups into a sorted export.
type metricIndex map[string]telemetry.Metric

func indexMetrics(metrics []telemetry.Metric) metricIndex {
	idx := make(metricIndex, len(metrics))
	for _, m := range metrics {
		idx[m.Name] = m
	}
	return idx
}

func (idx metricIndex) value(name string) (float64, bool) {
	m, ok := idx[name]
	return m.Value, ok
}

// worstTail returns the histogram-vector stat with the highest p99
// among keys with at least minCount samples — the tail that indicts a
// component, not a one-message fluke.
func (idx metricIndex) worstTail(name string, minCount int64) (telemetry.HistStat, bool) {
	m, ok := idx[name]
	if !ok {
		return telemetry.HistStat{}, false
	}
	var best telemetry.HistStat
	found := false
	for _, h := range m.Hists {
		if h.Count < minCount {
			continue
		}
		if !found || h.P99 > best.P99 {
			best, found = h, true
		}
	}
	return best, found
}

// AnalyzeBottlenecks ranks the simulated machine's substrates by their
// share of attributed executed cycles and attaches corroborating
// evidence and a first-knob suggestion to each.
func AnalyzeBottlenecks(metrics []telemetry.Metric) *BottleneckReport {
	idx := indexMetrics(metrics)
	rep := &BottleneckReport{}

	type comp struct {
		name     string
		gauge    string
		evidence func() string
		suggest  string
	}
	comps := []comp{
		{"network", "attr/network", func() string {
			if h, ok := idx.worstTail("net/msg_latency_by_hops", 8); ok {
				return fmt.Sprintf("p99 Tm(hops=%d) = %d cyc", h.Key, h.P99)
			}
			if v, ok := idx.value("net/latency_mean"); ok && v > 0 {
				return fmt.Sprintf("mean Tm = %.1f cyc", v)
			}
			return ""
		}, "a tighter mapping to cut mean hop distance"},
		{"protocol", "attr/protocol", func() string {
			if h, ok := idx.worstTail("proto/txn_latency_by_home_dist", 8); ok {
				return fmt.Sprintf("p99 Tt(home d=%d) = %d cyc", h.Key, h.P99)
			}
			if v, ok := idx.value("proto/outstanding_txns"); ok && v > 0 {
				return fmt.Sprintf("%.0f transactions outstanding", v)
			}
			return ""
		}, "more hardware contexts to overlap directory occupancy, or shorter home distances"},
		{"processors", "attr/processors", func() string {
			if v, ok := idx.value("proc/busy_cycles"); ok && v > 0 {
				return fmt.Sprintf("%.3g busy P-cycles", v)
			}
			return ""
		}, "compute-bound: raise the compute grain or accept it — the network is not the limiter"},
		{"unforced", "attr/unforced", func() string {
			return ""
		}, "idle ticks: mostly harmless; the event kernel would skip these"},
	}

	for _, c := range comps {
		v, ok := idx.value(c.gauge)
		if !ok || v <= 0 {
			continue
		}
		rep.Attributed += v
		rep.Items = append(rep.Items, Bottleneck{
			Component:  c.name,
			Cycles:     v,
			Evidence:   c.evidence(),
			Suggestion: c.suggest,
		})
	}
	if rep.Attributed > 0 {
		for i := range rep.Items {
			rep.Items[i].Share = rep.Items[i].Cycles / rep.Attributed
		}
		sort.SliceStable(rep.Items, func(i, j int) bool {
			return rep.Items[i].Share > rep.Items[j].Share
		})
	}

	if v, ok := idx.value("kernel/skip_ratio"); ok {
		rep.Notes = append(rep.Notes, fmt.Sprintf("event kernel skipped %.0f%% of machine cycles", v*100))
	}
	return rep
}

// Table renders the report as the repo's standard table: ranked
// component rows plus the notes as preamble lines.
func (r *BottleneckReport) Table() Table {
	t := Table{
		Title:  "== Bottleneck analysis: attributed executed cycles by component",
		Pre:    r.Notes,
		Header: []string{"component", "share", "cycles", "evidence", "suggest"},
	}
	if r.Attributed == 0 {
		t.Pre = append(t.Pre, "   (no cycle attribution in this snapshot — event kernel off, or run not started)")
	}
	for _, b := range r.Items {
		t.Rows = append(t.Rows, row(
			b.Component, fmt.Sprintf("%.0f%%", b.Share*100), fmt.Sprintf("%.4g", b.Cycles),
			b.Evidence, b.Suggestion))
	}
	return t
}

// RenderBottlenecks analyzes a telemetry export and writes the ranked
// table; this is the path simrun -analyze and /statusz share.
func RenderBottlenecks(w io.Writer, metrics []telemetry.Metric) {
	AnalyzeBottlenecks(metrics).Table().Render(w)
}
