// Command scalebench runs the gain-vs-N scaling experiment on machine
// sizes up to and beyond 10⁵ nodes and writes the measured curve as
// JSON. The largest default cell is a 320×320 torus — 102 400 nodes,
// two orders of magnitude past the paper's 64-node simulations — made
// runnable by the active-router set and the sparse per-node
// state: the machine's construction cost and resident memory track the
// state actually touched, and the fabric's per-cycle cost tracks the
// flits actually in flight.
//
//	scalebench -out BENCH_scale.json
//	scalebench -radices 32,100 -window 2000   # quick smoke
//	scalebench -obs localhost:9090 -ledger ledger.jsonl
//
// -obs serves the live observability endpoints (/metrics, /statusz,
// /healthz, /debug/pprof) for the duration of the run — on the large
// cells a scrape shows the current cycle, rate, and ETA instead of a
// silent multi-minute wait. -ledger appends one structured run record
// per machine size for cmd/perfcheck to gate regressions against.
//
// Each machine size simulates the ideal and random placements back to
// back and pairs the measured gain with the analytic model's
// prediction (core.Solve) at the same grain and distance. The report
// records wall-clock and peak heap per cell so regressions in the
// large-N path show up as numbers, plus GOMAXPROCS/NumCPU so timings
// are read against the host that produced them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"locality/internal/experiments"
	"locality/internal/machine"
	"locality/internal/obs"
	"locality/internal/telemetry"
)

// cellResult is one machine size's measurement plus its cost.
type cellResult struct {
	Radix          int     `json:"radix"`
	Nodes          int     `json:"nodes"`
	RandomD        float64 `json:"random_avg_distance"`
	IdealInterTxn  float64 `json:"ideal_inter_txn_pcycles"`
	RandomInterTxn float64 `json:"random_inter_txn_pcycles"`
	MeasuredGain   float64 `json:"measured_gain"`
	ModelGain      float64 `json:"model_gain"`
	WallSeconds    float64 `json:"wall_seconds"`
	HeapPeakMB     float64 `json:"heap_peak_mb"`
}

// result is the JSON report.
type result struct {
	Contexts   int          `json:"contexts"`
	Compute    int          `json:"compute_cycles"`
	Warmup     int64        `json:"warmup_pcycles"`
	Window     int64        `json:"window_pcycles"`
	Seed       int64        `json:"seed"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Results    []cellResult `json:"results"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scalebench:", err)
	os.Exit(1)
}

// parseRadices parses a comma-separated radix list.
func parseRadices(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad radix %q: %w", f, err)
		}
		out = append(out, k)
	}
	return out, nil
}

// heapPeakMB reports the current live-heap high-water estimate.
func heapPeakMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func main() {
	out := flag.String("out", "BENCH_scale.json", "output JSON path")
	radices := flag.String("radices", "32,100,320", "comma-separated torus side lengths")
	contexts := flag.Int("contexts", 1, "hardware contexts per processor")
	compute := flag.Int("compute", 4000, "workload compute burst (P-cycles)")
	warmup := flag.Int64("warmup", 4000, "warmup P-cycles per run")
	window := flag.Int64("window", 8000, "measured P-cycles per run")
	seed := flag.Int64("seed", 1, "random-mapping seed")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics, /statusz, /healthz, /debug/pprof) on this address, e.g. localhost:9090")
	ledger := flag.String("ledger", "", "append a structured run record per machine size to this JSONL ledger (e.g. ledger.jsonl)")
	flag.Parse()

	ks, err := parseRadices(*radices)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.DefaultGainScaleConfig()
	cfg.Contexts = *contexts
	cfg.Compute = *compute
	cfg.Warmup = *warmup
	cfg.Window = *window
	cfg.Seed = *seed

	if *obsAddr != "" {
		bridge := obs.NewBridge()
		srv, err := obs.NewServer(*obsAddr, bridge)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "scalebench: observability at http://%s/\n", srv.Addr())
		cfg.Instrument = func(label string, mc *machine.Config) {
			mc.Telemetry = telemetry.New()
			mc.Observer = bridge.MachineObserver(label, cfg.Warmup+cfg.Window)
		}
	}

	res := result{
		Contexts: cfg.Contexts, Compute: cfg.Compute,
		Warmup: cfg.Warmup, Window: cfg.Window, Seed: cfg.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	ctx := context.Background()
	// One size at a time, sequentially: the big cells are memory- and
	// cache-bound, and per-cell wall clock is part of the report.
	for _, k := range ks {
		cfg.Radices = []int{k}
		t0 := time.Now()
		rows, err := experiments.RunGainScale(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(t0).Seconds()
		r := rows[0]
		res.Results = append(res.Results, cellResult{
			Radix: r.Radix, Nodes: r.Nodes, RandomD: r.RandomD,
			IdealInterTxn: r.IdealInterTxn, RandomInterTxn: r.RandomInterTxn,
			MeasuredGain: r.MeasuredGain, ModelGain: r.ModelGain,
			WallSeconds: wall, HeapPeakMB: heapPeakMB(),
		})
		fmt.Printf("k=%-4d N=%-7d d̄=%6.2f  gain %.3f (model %.3f)  %5.1fs  heap %.0f MB\n",
			r.Radix, r.Nodes, r.RandomD, r.MeasuredGain, r.ModelGain, wall, heapPeakMB())
		if *ledger != "" {
			rec := obs.NewRunRecord("scalebench")
			rec.Label = fmt.Sprintf("gainscale k=%d", k)
			rec.Radix, rec.Dims, rec.Nodes, rec.Contexts = r.Radix, 2, r.Nodes, cfg.Contexts
			// Two placements simulated back to back per cell.
			rec.FillOutcome(time.Duration(wall*float64(time.Second)), 2*(cfg.Warmup+cfg.Window))
			if err := obs.AppendLedger(*ledger, rec); err != nil {
				fmt.Fprintln(os.Stderr, "scalebench:", err)
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("GOMAXPROCS %d, NumCPU %d → %s\n", res.GOMAXPROCS, res.NumCPU, *out)
}
