package report

import (
	"strings"
	"testing"

	"locality/internal/telemetry"
)

// fakeExport builds a network-dominated attribution snapshot with a
// latency tail that should surface as evidence.
func fakeExport() []telemetry.Metric {
	reg := telemetry.New()
	attr := map[string]float64{
		"attr/network":    610,
		"attr/protocol":   250,
		"attr/processors": 120,
		"attr/unforced":   20,
	}
	for name, v := range attr {
		v := v
		reg.GaugeFunc(name, func() float64 { return v })
	}
	reg.GaugeFunc("kernel/skip_ratio", func() float64 { return 0.42 })
	vec := reg.HistogramVec("net/msg_latency_by_hops", 9, 8, 32)
	for i := int64(0); i < 50; i++ {
		vec.Observe(8, 200+i%16) // d=8 tail, p99 in the 208..224 bucket range
		vec.Observe(2, 40)
	}
	vec.Observe(5, 900) // hot but under the min-count floor: must not win
	return reg.Export()
}

func TestAnalyzeBottlenecksRanking(t *testing.T) {
	rep := AnalyzeBottlenecks(fakeExport())
	if rep.Attributed != 1000 {
		t.Fatalf("attributed = %.0f, want 1000", rep.Attributed)
	}
	if len(rep.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(rep.Items))
	}
	if rep.Items[0].Component != "network" || rep.Items[0].Share != 0.61 {
		t.Fatalf("top item = %+v, want network at 61%%", rep.Items[0])
	}
	if rep.Items[1].Component != "protocol" || rep.Items[3].Component != "unforced" {
		t.Fatalf("ranking order wrong: %+v", rep.Items)
	}
	if !strings.Contains(rep.Items[0].Evidence, "hops=8") {
		t.Fatalf("network evidence %q does not cite the d=8 tail", rep.Items[0].Evidence)
	}
	if rep.Items[0].Suggestion == "" {
		t.Fatal("top bottleneck carries no suggestion")
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0], "42%") {
		t.Fatalf("notes = %v, want the skip ratio", rep.Notes)
	}
}

func TestRenderBottlenecks(t *testing.T) {
	var b strings.Builder
	RenderBottlenecks(&b, fakeExport())
	out := b.String()
	for _, want := range []string{"Bottleneck analysis", "network", "61%", "suggest"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeBottlenecksEmpty(t *testing.T) {
	rep := AnalyzeBottlenecks(nil)
	if rep.Attributed != 0 || len(rep.Items) != 0 {
		t.Fatalf("empty export analyzed to %+v", rep)
	}
	var b strings.Builder
	rep.Table().Render(&b)
	if !strings.Contains(b.String(), "no cycle attribution") {
		t.Fatalf("empty report does not explain itself:\n%s", b.String())
	}
}
