package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// metricSpec names a metric and its unit. endToEnd and perLayer are the
// lists BENCHMARK.json declares; the smoke test keeps the two in step.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"sim.skip_ratio", "fraction"},
		{"sim.executed_cycles", "count"},
		{"sim.host_ns_per_executed_cycle", "ns/cycle"},
		{"netsim.msgs", "count"},
		{"netsim.latency_ncycles", "ncycles"},
		{"netsim.channel_util", "fraction"},
		{"netsim.active_routers_mean", "count"},
		{"netsim.host_ns_per_msg", "ns/msg"},
		{"netsim.host_ns_per_router_step", "ns/step"},
		{"cohsim.txns", "count"},
		{"cohsim.msgs_per_txn", "msgs/txn"},
		{"cohsim.txn_latency_pcycles", "pcycles"},
		{"cohsim.host_ns_per_txn", "ns/txn"},
		{"procsim.busy_frac", "fraction"},
		{"procsim.miss_ratio", "fraction"},
		{"procsim.host_ns_per_access", "ns/access"},
		{"machine.new_ms", "ms/machine"},
		{"machine.live_bytes_per_node", "B/node"},
		{"machine.alloc_mb_per_mpcycle", "MB/Mpcycle"},
		{"engine.parallelism", "ratio"},
		{"model.gain_err_pct", "%"},
		{"core.solve_cold_ns", "ns/solve"},
		{"core.cache_hit_ns", "ns/solve"},
		{"core.cache_hit_ratio", "fraction"},
		{"serve.batches", "count"},
		{"serve.coalesced_ratio", "fraction"},
		{"serve.healthz_p50_ms", "ms/req"},
		{"serve.solve_p99_ms", "ms/req"},
		{"serve.generator_late_p99_ms", "ms/req"},
		{"checkpoint.write_mb_per_s", "MB/s"},
		{"checkpoint.read_mb_per_s", "MB/s"},
		{"checkpoint.bytes", "B"},
		{"machine.build_checkpoint_ms", "ms/op"},
		{"machine.restore_ms", "ms/op"},
		{"replay.write_mb_per_s", "MB/s"},
		{"replay.read_mb_per_s", "MB/s"},
		{"replay.bytes", "B"},
	}
	for _, b := range hostBuckets {
		l = append(l, metricSpec{"host_share." + b, "fraction"})
	}
	return append(l, metricSpec{"trace.overhead_frac", "fraction"})
}()

// workloadDef is one named workload: its parameters (recorded in the
// provenance header and the goldens) and its set-up.
type workloadDef struct {
	name   string
	params func(short bool) any
	setup  func(e *env) (session, error)
}

var workloads = []workloadDef{
	{"sweep-8x8", sweepParams, setupSim(sweepParams)},
	{"idle-8x8", idleParams, setupSim(idleParams)},
	{"scale-100x100", scaleParams, setupSim(scaleParams)},
	{"serve-solve", serveParams, setupServe},
	{"codec", codecParams, setupCodec},
}

// env is what a workload's set-up receives.
type env struct {
	seed    int64
	short   bool
	seconds time.Duration // the run's measurement time
	// workers bounds engine workers and HTTP connections: the load
	// comes from this one process and uses at most two threads of work
	// (fewer on a one-CPU host).
	workers int
	// golden holds the expected simulated outputs; nil when none apply
	// to this seed and parameter set, and only invariants are checked.
	golden *goldenEntry
}

// session is a workload after set-up. measure runs it for about d and
// checks every output; with a tracer it also records spans and the
// per-layer metrics only a traced run can give.
type session interface {
	measure(ctx context.Context, d time.Duration, tr *tracer) (*sample, error)
	close()
}

// sample is what one measure call observed.
type sample struct {
	ops []time.Duration // host time of each completed operation
	// workPerS is the workload's units of work completed per second:
	// simulated P-cycles, closed-loop requests, or codec bytes.
	workPerS  float64
	attempted int
	failed    int
	notes     []string
	heapMB    float64 // live heap with the workload's state reachable
	layers    map[string]float64
	// costs are per-layer host costs resolved from the traced run's CPU
	// profile: the CPU time of the named host_share buckets over count.
	costs map[string]hostCost
	// cells are the simulated outputs the goldens pin.
	cells []goldenCell
}

type hostCost struct {
	buckets []string
	count   float64
}

// note records a failure's reason; the first few go to stderr.
func (s *sample) note(msg string) { s.notes = append(s.notes, msg) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newMetric reports a value that could not be formed (a ratio over an
// empty run) as 0, which JSON can carry; such runs fail their checks.
func newMetric(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{v, unit}
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	traceDir   string
	short      bool
	workers    int
	writeGold  bool
	goldenDir  string
	goldenFile goldenFile // overrides the embedded goldens when non-nil
}

// paramKey identifies a parameter set in the goldens.
func paramKey(params any) string { return fmt.Sprintf("%+v", params) }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setUp runs the workload's set-up back to back, at least three times
// and until a sixteenth of the measurement time has passed, closing all
// but the last session, and returns that session with the median
// set-up time. Each set-up starts after a full collection with nothing
// of the previous session reachable, so every one starts from the same
// small heap and none pays for collecting another's garbage.
func setUp(w workloadDef, e *env) (session, time.Duration, error) {
	var s session
	var times []float64
	start := time.Now()
	for len(times) < 3 || time.Since(start) < e.seconds/16 {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	return s, time.Duration(quantile(times, 0.5)), nil
}

// provenance is the header every run prints first: the workload's
// parameters and the host shape the numbers were taken on.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Params     any     `json:"params"`
	Golden     string  `json:"golden"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
}

func revision() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}

// runWorkload sets one workload up, measures it and checks its outputs.
// Untraced, the result carries the end-to-end metrics. Traced, the
// workload runs twice for half the time each — untraced, then with
// spans and a CPU profile — and the result carries the per-layer
// metrics; both halves' outputs are checked against each other.
func runWorkload(ctx context.Context, w workloadDef, o options, out io.Writer) (result, error) {
	params := w.params(o.short)
	e := &env{seed: o.seed, short: o.short, seconds: o.seconds, workers: o.workers}
	gold := o.goldenFile
	if gold == nil {
		var err error
		if gold, err = loadGolden(o.seed); err != nil {
			return result{}, err
		}
	}
	status := "skipped"
	if g, ok := gold[w.name]; ok && g.Params == paramKey(params) && !o.writeGold {
		e.golden, status = &g, "ok"
	}
	prov := provenance{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Params: params,
		Golden: status, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: revision(),
	}
	if b, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(out, "# provenance %s\n", b)
	}

	s, setupFirst, err := setUp(w, e)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	res := result{Metrics: map[string]metric{}}
	var samples []*sample
	if !o.trace {
		smp, err := s.measure(ctx, o.seconds, nil)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, smp)
		// Set-up is timed again after the measurement, starting as the
		// first window did with no session reachable. The reference host
		// has slow spells of seconds; two windows that far apart are
		// seldom both in one.
		s.close()
		s = nil
		last, setupLast, err := setUp(w, e)
		if err != nil {
			return result{}, err
		}
		last.close()
		opsMS := durationsMS(smp.ops)
		values := map[string]float64{
			"setup_s":      (setupFirst + setupLast).Seconds() / 2,
			"op_p50_ms":    quantile(opsMS, 0.5),
			"work_per_s":   smp.workPerS,
			"live_heap_mb": smp.heapMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = newMetric(values[m.name], m.unit)
		}
		if o.writeGold && smp.cells != nil && smp.failed == 0 {
			if err := writeGolden(o.goldenDir, o.seed, w.name, goldenEntry{Params: paramKey(params), Cells: smp.cells}); err != nil {
				return result{}, err
			}
			fmt.Fprintf(out, "# golden written: %s seed %d\n", w.name, o.seed)
		}
	} else {
		base, err := s.measure(ctx, o.seconds/2, nil)
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		traced, err := s.measure(ctx, o.seconds/2, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		samples = append(samples, base, traced)
		byPkg, err := leafPackageTime(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		shares, totalNS := hostShares(byPkg)
		layers := base.layers
		for k, v := range traced.layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
		for name, c := range traced.costs {
			var share float64
			for _, b := range c.buckets {
				share += shares[b]
			}
			if c.count > 0 {
				layers[name] = share * float64(totalNS) / c.count
			}
		}
		for b, v := range shares {
			layers["host_share."+b] = v
		}
		if p50 := quantile(durationsMS(base.ops), 0.5); p50 > 0 {
			layers["trace.overhead_frac"] = quantile(durationsMS(traced.ops), 0.5)/p50 - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = newMetric(layers[m.name], m.unit)
		}
		if o.traceDir != "" {
			if err := writeTrace(o.traceDir, w.name, tr, layers); err != nil {
				return result{}, err
			}
		}
	}
	for _, smp := range samples {
		res.Attempted += smp.attempted
		res.Failed += smp.failed
		for i, n := range smp.notes {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d more failures\n", w.name, len(smp.notes)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func printMetrics(out io.Writer, r result, specs []metricSpec) {
	for _, m := range specs {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(out, "%-34s %14.6g fraction (%d of %d operations)\n", "fail_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
}

func main() {
	name := flag.String("workload", "all", "workload to run: sweep-8x8, idle-8x8, scale-100x100, serve-solve, codec, or all")
	seed := flag.Int64("seed", 1, "input seed; seeds 1 and 2 have goldens, seed 2 is held out for claims")
	seconds := flag.Float64("seconds", 20, "measurement time per workload, in seconds")
	trace := flag.Int("trace", 0, "1 re-runs the workload traced and prints the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", "", "with -trace 1, also write spans.json and layers.json under <dir>/<workload>")
	writeGold := flag.Bool("write-golden", false, "record the simulated outputs as the goldens for this seed, under cmd/bench/testdata/golden (run from the repository root)")
	flag.Parse()

	var run []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		workers: min(2, runtime.NumCPU()), writeGold: *writeGold, goldenDir: "cmd/bench/testdata/golden",
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, w := range run {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		if o.traceDir = ""; *traceDir != "" {
			o.traceDir = filepath.Join(*traceDir, w.name)
		}
		r, err := runWorkload(ctx, w, o, os.Stdout)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		printMetrics(os.Stdout, r, specs)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
		last = r
	}
	if len(run) > 1 {
		last = all
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !last.Correct {
		os.Exit(1)
	}
}
