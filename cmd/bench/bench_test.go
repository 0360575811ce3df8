package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// shortOptions are the smoke test's sizes: every workload at its short
// parameters for a fifth of a second.
func shortOptions() options {
	return options{seed: 1, seconds: 200 * time.Millisecond, short: true, workers: min(2, runtime.NumCPU())}
}

func run(t *testing.T, w workloadDef, o options) result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	var out bytes.Buffer
	r, err := runWorkload(ctx, w, o, &out)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	t.Logf("%s trace=%v: %v", w.name, o.trace, time.Since(t0).Round(time.Millisecond))
	return r
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, w string, r result, specs []metricSpec) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", w, r.Correct, r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", w, len(r.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := r.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", w, m.name, got, m.unit)
		}
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.name)
		}
	}
}

// TestWorkloadsShort runs every workload untraced and traced at short
// sizes and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and that every output checks out.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		o := shortOptions()
		r := run(t, w, o)
		checkMetrics(t, w.name, r, endToEnd)
		for _, m := range endToEnd {
			if r.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, r.Metrics[m.name].Value)
			}
		}

		o.trace, o.traceDir = true, filepath.Join(t.TempDir(), w.name)
		r = run(t, w, o)
		checkMetrics(t, w.name, r, perLayer)
		var sum float64
		for _, b := range hostBuckets {
			sum += r.Metrics["host_share."+b].Value
		}
		// A short run can end before the profiler takes a sample.
		if sum != 0 && (sum < 0.98 || sum > 1.02) {
			t.Errorf("%s: host shares sum to %v", w.name, sum)
		}
		for _, f := range []string{"spans.json", "layers.json"} {
			if _, err := os.Stat(filepath.Join(o.traceDir, f)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// TestServeConnections checks that the load comes from at most NumCPU
// client connections.
func TestServeConnections(t *testing.T) {
	e := &env{seed: 1, short: true, workers: min(2, runtime.NumCPU())}
	s, err := setupServe(e)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	smp, err := s.measure(context.Background(), 200*time.Millisecond, nil)
	if err != nil || smp.failed != 0 {
		t.Fatalf("measure: %v, %d failed", err, smp.failed)
	}
	if d := s.(*serveSession).dials.Load(); d < 1 || d > int64(runtime.NumCPU()) {
		t.Errorf("client opened %d connections, want 1..%d", d, runtime.NumCPU())
	}
}

// TestGoldenMismatchFails records a golden for the short sweep, then
// corrupts one value: the same run must then count failures.
func TestGoldenMismatchFails(t *testing.T) {
	w := workloads[0]
	o := shortOptions()
	o.writeGold, o.goldenDir = true, t.TempDir()
	run(t, w, o)
	b, err := os.ReadFile(filepath.Join(o.goldenDir, goldenName(o.seed)))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	o.writeGold, o.goldenFile = false, g
	if r := run(t, w, o); !r.Correct || r.Failed != 0 {
		t.Fatalf("run against its own golden: correct=%v failed=%d", r.Correct, r.Failed)
	}
	g[w.name].Cells[1].Metrics.Transactions++
	if r := run(t, w, o); r.Correct || r.Failed == 0 {
		t.Errorf("corrupted golden: correct=%v failed=%d, want failures", r.Correct, r.Failed)
	}
}

// TestEmbeddedGoldens checks that seeds 1 and 2 carry goldens for every
// simulation workload at its full parameters.
func TestEmbeddedGoldens(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g, err := loadGolden(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads[:3] {
			e, ok := g[w.name]
			if !ok || len(e.Cells) == 0 {
				t.Errorf("seed %d: no golden for %s", seed, w.name)
			}
			if want := paramKey(w.params(false)); e.Params != want {
				t.Errorf("seed %d %s: golden params %q, want %q", seed, w.name, e.Params, want)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, cmd/bench %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, cmd/bench %d", len(c.json), len(c.specs))
		}
		for i, m := range c.json {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
	}
	st := selfTimes(spans)
	if got := st["parent"].SelfMS * 1e6; got != 60 {
		t.Errorf("parent self time %v ns, want 60", got)
	}
	if got := st["child"]; got.Count != 2 || got.TotalMS*1e6 != 50 {
		t.Errorf("child stats %+v", got)
	}
}
