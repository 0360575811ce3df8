// Command tracetool captures, inspects, replays, and fits replayable
// reference traces (.lref files, package internal/replay):
//
//	tracetool capture -o trace.lref -k 8 -n 2 -contexts 2 -mapping identity
//	tracetool info -i trace.lref
//	tracetool replay -i trace.lref
//	tracetool replay -i trace.lref -mapping random:1 -kernel tick
//	tracetool fit -i trace.lref -workers 8 -csv fit.csv
//
// capture runs the synthetic relaxation workload with a capture sink
// attached and writes the recorded reference streams; its stdout is
// the same measurement block replay prints, so
//
//	tracetool capture -o t.lref > a.txt
//	tracetool replay -i t.lref > b.txt
//	diff a.txt b.txt
//
// is the subsystem's round-trip check: a trace replayed under its
// recorded mapping reproduces the capturing run measurement for
// measurement. replay runs a trace as the machine's workload — under
// the recorded thread placement by default, or any other mapping with
// -mapping — and fit replays it across a whole mapping sweep, fits
// the application message curve Tm = s·tm − K through the sweep, and
// reports the recovered application parameters (s, c, Tr+Tc+Tf)
// alongside the combined model's predictions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"locality/internal/experiments"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/mapsel"
	"locality/internal/netsim"
	"locality/internal/replay"
	"locality/internal/report"
	"locality/internal/sim"
	"locality/internal/topology"
	"locality/internal/workload"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracetool:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool <capture|info|replay|fit> [flags]")
	fmt.Fprintln(os.Stderr, "run tracetool <verb> -h for the verb's flags")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	switch os.Args[1] {
	case "capture":
		runCapture(ctx, os.Args[2:])
	case "info":
		runInfo(os.Args[2:])
	case "replay":
		runReplay(ctx, os.Args[2:])
	case "fit":
		runFit(ctx, os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown verb %q\n", os.Args[1])
		usage()
	}
}

// printMetrics is the shared measurement block: capture and replay
// emit exactly this, so their outputs diff clean when a trace
// round-trips.
func printMetrics(met machine.Metrics) {
	fmt.Printf("window                   %d P-cycles (%d N-cycles)\n", met.PCycles, met.NCycles)
	fmt.Printf("transactions             %d\n", met.Transactions)
	fmt.Printf("fabric messages          %d\n", met.Messages)
	fmt.Printf("avg communication dist   %.2f hops\n", met.AvgDistance)
	fmt.Printf("avg message size B       %.2f flits\n", met.MsgSize)
	fmt.Printf("messages/transaction g   %.2f\n", met.MsgsPerTxn)
	fmt.Printf("inter-message time tm    %.2f N-cycles\n", met.InterMsgTime)
	fmt.Printf("message rate rm          %.5f msgs/N-cycle/node\n", met.MsgRate)
	fmt.Printf("message latency Tm       %.2f N-cycles\n", met.MsgLatency)
	fmt.Printf("transaction latency Tt   %.2f P-cycles\n", met.TxnLatency)
	fmt.Printf("inter-transaction tt     %.2f P-cycles\n", met.InterTxnTime)
	fmt.Printf("transaction rate rt      %.5f txns/P-cycle/proc\n", met.TxnRate)
	fmt.Printf("channel utilization      %.3f\n", met.ChannelUtilization)
}

func runCapture(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("tracetool capture", flag.ExitOnError)
	k := fs.Int("k", 8, "torus radix")
	n := fs.Int("n", 2, fmt.Sprintf("torus dimensions, 1 to %d", netsim.MaxDims))
	contexts := fs.Int("contexts", 1, "hardware contexts per processor")
	mapSel := fs.String("mapping", "identity", "thread-to-processor mapping selector")
	warmup := fs.Int64("warmup", 5000, "warmup P-cycles (excluded from measurement)")
	window := fs.Int64("window", 20000, "measurement window P-cycles")
	out := fs.String("o", "", "output trace path (required)")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("capture: -o <trace.lref> is required"))
	}

	tor, err := topology.New(*k, *n)
	if err != nil {
		fatal(err)
	}
	m, err := mapsel.Parse(tor, *mapSel)
	if err != nil {
		fatal(err)
	}
	cap := replay.NewCapture()
	cfg := machine.DefaultConfig(tor, m, *contexts)
	cfg.Capture = cap
	mach, err := machine.New(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: *warmup, Window: *window})
	if err != nil {
		fatal(err)
	}
	met := res.Metrics
	tr, err := mach.CapturedTrace(*warmup, *window)
	if err != nil {
		fatal(err)
	}
	if err := replay.WriteFile(*out, tr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracetool: captured %d records (%d threads × %d contexts) to %s\n",
		tr.Records(), tr.Header.Nodes(), tr.Header.Contexts, *out)
	printMetrics(met)
}

func runInfo(args []string) {
	fs := flag.NewFlagSet("tracetool info", flag.ExitOnError)
	in := fs.String("i", "", "input trace path (required)")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("info: -i <trace.lref> is required"))
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	hdr := tr.Header
	minLen, maxLen := -1, 0
	for _, s := range tr.Threads {
		if minLen < 0 || len(s) < minLen {
			minLen = len(s)
		}
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	fmt.Printf("machine        %d-ary %d-cube (%d nodes), %d context(s)\n", hdr.Radix, hdr.Dims, hdr.Nodes(), hdr.Contexts)
	fmt.Printf("mapping        %s\n", hdr.MappingName)
	fmt.Printf("line size      %d bytes\n", hdr.LineSize)
	fmt.Printf("protocol       %d warmup + %d window P-cycles\n", hdr.Warmup, hdr.Window)
	fmt.Printf("records        %d across %d streams (%d..%d per stream)\n", tr.Records(), len(tr.Threads), minLen, maxLen)
	fmt.Printf("home table     %d distinct lines\n", len(tr.Home))
}

func runReplay(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("tracetool replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace path (required)")
	mapSel := fs.String("mapping", "", "replay mapping selector (default: the recorded placement)")
	contexts := fs.Int("contexts", 0, "hardware contexts (0 = recorded count)")
	warmup := fs.Int64("warmup", 0, "warmup P-cycles (0 = recorded)")
	window := fs.Int64("window", 0, "measurement window P-cycles (0 = recorded)")
	kernelFlag := fs.String("kernel", "event", "execution kernel: event or tick; results are bit-identical")
	loop := fs.Bool("loop", false, "rewind exhausted streams instead of halting")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("replay: -i <trace.lref> is required"))
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	kernel, err := sim.ParseKernel(*kernelFlag)
	if err != nil {
		fatal(err)
	}
	tor, err := topology.New(tr.Header.Radix, tr.Header.Dims)
	if err != nil {
		fatal(err)
	}
	var m *mapping.Mapping
	if *mapSel != "" {
		if m, err = mapsel.Parse(tor, *mapSel); err != nil {
			fatal(err)
		}
	} else {
		m = &mapping.Mapping{Name: tr.Header.MappingName, Place: tr.Header.Place}
	}
	p := *contexts
	if p == 0 {
		p = tr.Header.Contexts
	}
	wu, wi := *warmup, *window
	if wu <= 0 {
		wu = tr.Header.Warmup
	}
	if wi <= 0 {
		wi = tr.Header.Window
	}
	cfg := machine.DefaultConfig(tor, m, p)
	cfg.LineSize = tr.Header.LineSize
	cfg.Kernel = kernel
	wl := workload.ReplayConfig{Trace: tr, Contexts: p, Loop: *loop}
	if *mapSel != "" {
		wl.Map = m
	}
	cfg.Workload = wl
	mach, err := machine.New(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: wu, Window: wi})
	if err != nil {
		fatal(err)
	}
	printMetrics(res.Metrics)
}

func runFit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("tracetool fit", flag.ExitOnError)
	in := fs.String("i", "", "input trace path (required)")
	mapsFlag := fs.String("mappings", "suite", "comma-separated mapping selectors to sweep")
	contexts := fs.Int("contexts", 0, "hardware contexts (0 = recorded count)")
	warmup := fs.Int64("warmup", 0, "warmup P-cycles (0 = recorded)")
	window := fs.Int64("window", 0, "measurement window P-cycles (0 = recorded)")
	workers := fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "stream per-cell progress to stderr")
	csvOut := fs.String("csv", "", "also export the sweep as CSV to this path")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("fit: -i <trace.lref> is required"))
	}
	tr, err := replay.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	tor, err := topology.New(tr.Header.Radix, tr.Header.Dims)
	if err != nil {
		fatal(err)
	}
	maps, err := mapsel.List(tor, *mapsFlag)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.ReplayFitConfig{
		Trace:    tr,
		Contexts: *contexts,
		Warmup:   *warmup,
		Window:   *window,
		Mappings: maps,
	}
	cfg.Workers = *workers
	if *progress {
		cfg.Progress = os.Stderr
	}
	fit, err := experiments.RunReplayFit(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	report.RenderReplayFit(os.Stdout, fit)
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteReplayFitCSV(f, fit); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}
