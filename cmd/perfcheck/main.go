// Command perfcheck is the performance regression gate. It runs a
// canonical probe simulation, appends the result to the run ledger,
// and compares it against the history of identical probes plus the
// committed BENCH_*.json baselines, exiting nonzero when something
// got slower than the noise thresholds allow:
//
//	perfcheck -ledger ledger.jsonl
//	perfcheck -ledger ledger.jsonl -max-slowdown 0.3
//	perfcheck -skip-probe -check-metrics scrape.txt -check-statusz statusz.json
//
// Checks, in order:
//
//   - Probe: a fixed 8×8 torus / 2-context machine runs a short
//     measured window; its cycles/sec must be within -max-slowdown of
//     the median of prior ledger records for the same probe on the
//     same host shape (fingerprint + GOMAXPROCS). The first run on a
//     fresh ledger establishes the baseline and passes.
//   - BENCH_telemetry.json: the committed telemetry-overhead benchmark
//     must report within_budget.
//   - BENCH_scale.json: each machine size's measured locality gain
//     must agree with the model's prediction within -gain-tolerance.
//   - Served-query probe: an in-process modelserver answers a fixed
//     batch of /v1/solve queries over live HTTP; the batch's p99
//     latency must not exceed the historical median by more than
//     -max-latency-growth. Skip with -skip-serve-probe.
//   - -check-metrics: a saved /metrics scrape must be well-formed
//     Prometheus text exposition (the pure-Go promtool equivalent).
//   - -check-statusz: a saved /statusz?format=json document must parse
//     and carry a health verdict.
//
// The noise thresholds are deliberately generous: perfcheck gates
// "the event kernel got 2× slower", not single-digit jitter between CI
// hosts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/obs"
	"locality/internal/serve"
	"locality/internal/telemetry"
	"locality/internal/topology"
)

// probeLabel names the canonical probe; records under other labels
// never gate against it.
const probeLabel = "probe:k8n2p2"

const probeWarmup, probeWindow = int64(1000), int64(4000)

var failures int

func failf(format string, args ...any) {
	failures++
	fmt.Printf("perfcheck: FAIL %s\n", fmt.Sprintf(format, args...))
}

func passf(format string, args ...any) {
	fmt.Printf("perfcheck: ok   %s\n", fmt.Sprintf(format, args...))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfcheck:", err)
	os.Exit(2)
}

// runProbe executes the canonical probe machine and returns its ledger
// record (not yet appended).
func runProbe() (obs.RunRecord, error) {
	tor, err := topology.New(8, 2)
	if err != nil {
		return obs.RunRecord{}, err
	}
	cfg := machine.DefaultConfig(tor, mapping.Random(tor, 1), 2)
	cfg.Telemetry = telemetry.New()
	mach, err := machine.New(cfg)
	if err != nil {
		return obs.RunRecord{}, err
	}
	rec := obs.NewRunRecord("perfcheck")
	rec.Label = probeLabel
	rec.Kernel = cfg.Kernel.String()
	rec.FillMachine(mach)
	t0 := time.Now()
	res, err := mach.Execute(context.Background(), machine.RunSpec{Warmup: probeWarmup, Window: probeWindow})
	if err != nil {
		return obs.RunRecord{}, err
	}
	rec.FillOutcome(time.Since(t0), probeWarmup+probeWindow)
	rec.Metrics = &res.Metrics
	return rec, nil
}

// servedProbeLabel names the canonical served-query batch.
const servedProbeLabel = "probe:served-solve"

// servedProbeN is the batch size: enough requests for a meaningful p99
// (rank 99% of 200 = the 198th latency) while staying well under a
// second of wall time.
const servedProbeN = 200

// runServedProbe boots an in-process modelserver, fires the canonical
// solve batch at it over real HTTP, and returns a ledger record with
// the batch's latency percentiles.
func runServedProbe() (obs.RunRecord, error) {
	s, err := serve.New(serve.Config{Addr: "127.0.0.1:0", BatchWindow: -1})
	if err != nil {
		return obs.RunRecord{}, err
	}
	defer s.Close()
	url := "http://" + s.Addr() + "/v1/solve"

	// The batch cycles 16 distinct operating points, so it measures the
	// full serving stack — JSON decode, cache (both miss and hit), JSON
	// encode — in the proportions a sweep-shaped client sees.
	bodies := make([][]byte, 16)
	for i := range bodies {
		b, err := json.Marshal(serve.SolveRequest{ConfigSpec: serve.ConfigSpec{
			Contexts: 1 + i%4, D: 1 + 0.5*float64(i),
		}})
		if err != nil {
			return obs.RunRecord{}, err
		}
		bodies[i] = b
	}
	client := &http.Client{Timeout: 10 * time.Second}
	batch := func(record bool) (p50, p99 float64, err error) {
		lat := make([]float64, 0, servedProbeN)
		for i := 0; i < servedProbeN; i++ {
			q0 := time.Now()
			resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				return 0, 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return 0, 0, fmt.Errorf("served probe request %d: %s", i, resp.Status)
			}
			if record {
				lat = append(lat, float64(time.Since(q0).Microseconds()))
			}
		}
		if !record {
			return 0, 0, nil
		}
		sort.Float64s(lat)
		return lat[len(lat)/2], lat[len(lat)*99/100], nil
	}

	rec := obs.NewRunRecord("perfcheck")
	rec.Label = servedProbeLabel
	t0 := time.Now()
	// Warmup pass (connection setup, cache fill, JIT-warm GC heap),
	// then best-of-reps: the minimum p99 filters scheduler and GC noise
	// the way testing.B's minimum-style reporting does. The gate is for
	// "the serving path got slower", not one preempted goroutine.
	if _, _, err := batch(false); err != nil {
		return obs.RunRecord{}, err
	}
	const reps = 3
	for r := 0; r < reps; r++ {
		p50, p99, err := batch(true)
		if err != nil {
			return obs.RunRecord{}, err
		}
		if rec.P99Micros == 0 || p99 < rec.P99Micros {
			rec.P50Micros, rec.P99Micros = p50, p99
		}
	}
	rec.WallSeconds = time.Since(t0).Seconds()
	rec.PeakHeapMB = obs.HeapMB()
	rec.Requests = servedProbeN * reps
	return rec, nil
}

// gateServedProbe compares the fresh batch's p99 against the median
// p99 of comparable history: same label and GOMAXPROCS (served latency
// is host-shaped, not machine-fingerprinted).
func gateServedProbe(history []obs.RunRecord, cur obs.RunRecord, maxGrowth float64) {
	var p99s []float64
	for _, r := range history {
		if r.Cmd == cur.Cmd && r.Label == cur.Label && r.GOMAXPROCS == cur.GOMAXPROCS &&
			r.Error == "" && r.P99Micros > 0 {
			p99s = append(p99s, r.P99Micros)
		}
	}
	if len(p99s) == 0 {
		passf("served probe p99 %.0fµs over %d queries (first comparable record, baseline established)",
			cur.P99Micros, cur.Requests)
		return
	}
	sort.Float64s(p99s)
	median := p99s[len(p99s)/2]
	ceil := median * (1 + maxGrowth)
	if cur.P99Micros > ceil {
		failf("served probe p99 %.0fµs exceeds %.0fµs (median %.0fµs of %d prior runs, -max-latency-growth %.0f%%)",
			cur.P99Micros, ceil, median, len(p99s), maxGrowth*100)
		return
	}
	passf("served probe p99 %.0fµs vs median %.0fµs (%d prior runs)", cur.P99Micros, median, len(p99s))
}

// gateProbe compares the fresh probe against the median of comparable
// historical records: same command, label, machine fingerprint, and
// GOMAXPROCS (a different host shape is a different baseline).
func gateProbe(history []obs.RunRecord, cur obs.RunRecord, maxSlowdown float64) {
	var rates []float64
	for _, r := range history {
		if r.Cmd == cur.Cmd && r.Label == cur.Label && r.Fingerprint == cur.Fingerprint &&
			r.GOMAXPROCS == cur.GOMAXPROCS && r.Error == "" && r.CyclesPerSec > 0 {
			rates = append(rates, r.CyclesPerSec)
		}
	}
	if len(rates) == 0 {
		passf("probe %.0f cycles/s (first comparable record, baseline established)", cur.CyclesPerSec)
		return
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	floor := median * (1 - maxSlowdown)
	if cur.CyclesPerSec < floor {
		failf("probe %.0f cycles/s is below %.0f (median %.0f of %d prior runs, -max-slowdown %.0f%%)",
			cur.CyclesPerSec, floor, median, len(rates), maxSlowdown*100)
		return
	}
	passf("probe %.0f cycles/s vs median %.0f (%d prior runs)", cur.CyclesPerSec, median, len(rates))
}

func checkTelemetryBench(path string) {
	var b struct {
		OverheadFrac float64 `json:"overhead_frac"`
		BudgetFrac   float64 `json:"budget_frac"`
		WithinBudget bool    `json:"within_budget"`
	}
	if !loadJSON(path, &b) {
		return
	}
	if !b.WithinBudget {
		failf("%s: telemetry overhead %.1f%% exceeds budget %.1f%%", filepath.Base(path), b.OverheadFrac*100, b.BudgetFrac*100)
		return
	}
	passf("%s: telemetry overhead %.1f%% within %.1f%% budget", filepath.Base(path), b.OverheadFrac*100, b.BudgetFrac*100)
}

func checkScaleBench(path string, gainTol float64) {
	var b struct {
		Results []struct {
			Radix    int     `json:"radix"`
			Nodes    int     `json:"nodes"`
			Measured float64 `json:"measured_gain"`
			Model    float64 `json:"model_gain"`
			Wall     float64 `json:"wall_seconds"`
			Heap     float64 `json:"heap_peak_mb"`
		} `json:"results"`
	}
	if !loadJSON(path, &b) {
		return
	}
	for _, r := range b.Results {
		if r.Wall <= 0 || r.Heap <= 0 {
			failf("%s: k=%d missing cost accounting (wall %.3fs, heap %.1f MB)", filepath.Base(path), r.Radix, r.Wall, r.Heap)
			return
		}
		if r.Model <= 0 {
			failf("%s: k=%d has no model prediction", filepath.Base(path), r.Radix)
			return
		}
		if rel := math.Abs(r.Measured-r.Model) / r.Model; rel > gainTol {
			failf("%s: k=%d (N=%d) measured gain %.4f vs model %.4f diverges %.1f%% (> %.0f%%)",
				filepath.Base(path), r.Radix, r.Nodes, r.Measured, r.Model, rel*100, gainTol*100)
			return
		}
	}
	passf("%s: %d sizes, measured vs model gain within %.0f%%", filepath.Base(path), len(b.Results), gainTol*100)
}

// loadJSON reads path into v; a missing file is a warning (the
// baseline was never committed), a malformed one a failure.
func loadJSON(path string, v any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("perfcheck: skip %s (not present)\n", filepath.Base(path))
			return false
		}
		failf("%s: %v", filepath.Base(path), err)
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		failf("%s: %v", filepath.Base(path), err)
		return false
	}
	return true
}

func checkMetricsFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		failf("metrics scrape: %v", err)
		return
	}
	defer f.Close()
	if err := obs.ValidateExposition(f); err != nil {
		failf("metrics scrape %s: %v", path, err)
		return
	}
	passf("metrics scrape %s is well-formed exposition", path)
}

func checkStatuszFile(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		failf("statusz document: %v", err)
		return
	}
	var st struct {
		Health struct {
			Status string `json:"status"`
		} `json:"health"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		failf("statusz document %s: %v", path, err)
		return
	}
	if st.Health.Status == "" {
		failf("statusz document %s carries no health verdict", path)
		return
	}
	passf("statusz document %s parses, health=%s", path, st.Health.Status)
}

func main() {
	ledger := flag.String("ledger", "ledger.jsonl", "JSONL run ledger to gate against (the probe appends to it)")
	benchDir := flag.String("bench-dir", ".", "directory holding the BENCH_*.json baselines")
	maxSlowdown := flag.Float64("max-slowdown", 0.5, "allowed fractional cycles/sec drop vs the historical median")
	gainTol := flag.Float64("gain-tolerance", 0.15, "allowed relative measured-vs-model gain divergence in BENCH_scale.json")
	maxLatGrowth := flag.Float64("max-latency-growth", 1.0, "allowed fractional served-probe p99 growth vs the historical median")
	skipProbe := flag.Bool("skip-probe", false, "skip the live probe run; validate baselines and documents only")
	skipServeProbe := flag.Bool("skip-serve-probe", false, "skip the served-query latency probe")
	checkMetrics := flag.String("check-metrics", "", "validate a saved /metrics scrape file")
	checkStatusz := flag.String("check-statusz", "", "validate a saved /statusz?format=json document")
	flag.Parse()

	if !*skipProbe {
		history, err := obs.ReadLedger(*ledger)
		if err != nil {
			fatal(err)
		}
		rec, err := runProbe()
		if err != nil {
			fatal(err)
		}
		if err := obs.AppendLedger(*ledger, rec); err != nil {
			fatal(err)
		}
		gateProbe(history, rec, *maxSlowdown)
	}

	if !*skipProbe && !*skipServeProbe {
		history, err := obs.ReadLedger(*ledger)
		if err != nil {
			fatal(err)
		}
		rec, err := runServedProbe()
		if err != nil {
			fatal(err)
		}
		if err := obs.AppendLedger(*ledger, rec); err != nil {
			fatal(err)
		}
		gateServedProbe(history, rec, *maxLatGrowth)
	}

	checkTelemetryBench(filepath.Join(*benchDir, "BENCH_telemetry.json"))
	checkScaleBench(filepath.Join(*benchDir, "BENCH_scale.json"), *gainTol)
	if *checkMetrics != "" {
		checkMetricsFile(*checkMetrics)
	}
	if *checkStatusz != "" {
		checkStatuszFile(*checkStatusz)
	}

	if failures > 0 {
		fmt.Printf("perfcheck: %d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("perfcheck: all checks passed")
}
