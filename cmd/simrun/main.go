// Command simrun executes one full-system simulation — multithreaded
// processors, coherent caches, directory protocol, and wormhole torus
// network — running the synthetic relaxation workload, and prints the
// measured quantities the paper's models consume.
//
//	simrun -k 8 -n 2 -contexts 2 -mapping random:1
//	simrun -mapping diag:3 -window 40000
//	simrun -mapping antilocal -contexts 4 -ratio 1
//	simrun -mapping random:1 -fault-rate 0.01 -link-mttf 5000
//	simrun -mapping random:1 -telemetry
//	simrun -mapping random:1 -trace-out trace.json -slice 1000 -slice-out slices.csv
//	simrun -window 2000000 -checkpoint-every 100000 -checkpoint-dir ckpts -checkpoint-keep 4
//	simrun -window 2000000 -restore ckpts/ckpt-1500000.lckp
//
// With fault injection enabled the run additionally reports loss and
// retry accounting; a run that stops making progress aborts with a
// diagnostic stall report and exit status 2.
//
// Crash recovery: -checkpoint-every writes a deterministic snapshot of
// the complete machine state every N P-cycles (atomic .lckp files in
// -checkpoint-dir, pruned to the newest -checkpoint-keep). With a
// checkpoint directory configured, Ctrl-C writes a final snapshot
// before exiting and a watchdog stall writes an emergency one named in
// the stall report. -restore resumes a run from a snapshot — the other
// flags must describe the same machine, which is enforced — and
// produces output byte-identical to the uninterrupted run.
//
// Observability: -telemetry appends the metrics-registry dump and the
// per-component cycle-attribution breakdown to the report; -analyze
// appends the ranked bottleneck report (implies -telemetry); -obs
// serves /metrics (Prometheus), /statusz, /healthz, and /debug/pprof
// on the given address for the duration of the run; -ledger appends
// one structured run record (wall time, cycles/sec, heap, final
// metrics) to a JSONL ledger; -trace-out writes a Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing) of message flows,
// transactions, and kernel-skip spans; -slice streams time-sliced
// interval samples (utilization, queue depths, skip ratio, fault
// state) to -slice-out as CSV or JSONL. None of these change the
// simulated results; without them the output is byte-identical to an
// uninstrumented run.
//
// Mapping selectors are parsed by internal/mapsel: identity,
// transpose, bitrev, antilocal[:seed], local[:seed], diag[:shift],
// dilation[:factor], rowshuffle[:seed], random[:seed].
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"locality/internal/checkpoint"
	"locality/internal/faults"
	"locality/internal/machine"
	"locality/internal/mapsel"
	"locality/internal/obs"
	"locality/internal/report"
	"locality/internal/sim"
	"locality/internal/telemetry"
	"locality/internal/topology"
	"locality/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}

func main() {
	k := flag.Int("k", 8, "torus radix")
	n := flag.Int("n", 2, "torus dimensions")
	contexts := flag.Int("contexts", 1, "hardware contexts per processor")
	mapSel := flag.String("mapping", "identity", "thread-to-processor mapping selector")
	warmup := flag.Int64("warmup", 5000, "warmup P-cycles (excluded from measurement)")
	window := flag.Int64("window", 20000, "measurement window P-cycles")
	ratio := flag.Int("ratio", 2, "network cycles per processor cycle")
	buffers := flag.Int("buffers", 8, "switch buffer depth per virtual channel (flits)")
	pointers := flag.Int("pointers", 0, "directory hardware sharer pointers (0 = full map)")
	faultRate := flag.Float64("fault-rate", 0, "protocol message loss probability (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed")
	linkMTTF := flag.Float64("link-mttf", 0, "mean N-cycles between transient faults per link (0 disables)")
	watchdog := flag.Int64("watchdog", 0, "abort after this many P-cycles without progress (0 = auto when faults enabled)")
	kernelFlag := flag.String("kernel", "event", "execution kernel: event (skip quiescent cycles) or tick (naive reference loop); results are bit-identical")
	telemetry_ := flag.Bool("telemetry", false, "enable the metrics registry and cycle attribution; dump both after the run")
	analyze := flag.Bool("analyze", false, "append the ranked bottleneck report after the run (implies -telemetry)")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics, /statusz, /healthz, /debug/pprof) on this address, e.g. localhost:9090")
	ledger := flag.String("ledger", "", "append a structured run record to this JSONL ledger (e.g. ledger.jsonl)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this path (implies tracing)")
	traceCap := flag.Int("trace-cap", 1<<16, "trace ring-buffer capacity in events")
	slice := flag.Int64("slice", 0, "emit one time-sliced sample every N P-cycles (0 disables; implies -telemetry)")
	sliceOut := flag.String("slice-out", "", "time-slice output path (default stderr)")
	sliceFormat := flag.String("slice-format", "csv", "time-slice format: csv or jsonl")
	ckptEvery := flag.Int64("checkpoint-every", 0, "write a state snapshot every N P-cycles (0 disables)")
	ckptDir := flag.String("checkpoint-dir", "", "snapshot directory (default \".\" when -checkpoint-every is set); also enables snapshots on interrupt and stall")
	ckptKeep := flag.Int("checkpoint-keep", 0, "retain only the newest N periodic snapshots (0 keeps all)")
	restore := flag.String("restore", "", "resume from a .lckp snapshot written by a run with identical machine flags")
	flag.Parse()

	tor, err := topology.New(*k, *n)
	if err != nil {
		fatal(err)
	}
	m, err := mapsel.Parse(tor, *mapSel)
	if err != nil {
		fatal(err)
	}
	spec := faults.Spec{Seed: *faultSeed, LossRate: *faultRate, LinkMTTF: *linkMTTF}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	kernel, err := sim.ParseKernel(*kernelFlag)
	if err != nil {
		fatal(err)
	}
	cfg := machine.DefaultConfig(tor, m, *contexts)
	cfg.Kernel = kernel
	cfg.ClockRatio = *ratio
	cfg.BufferDepth = *buffers
	cfg.HWPointers = *pointers
	if spec.Enabled() {
		cfg.Faults = &spec
	}
	cfg.Watchdog = faults.Watchdog{StallCycles: *watchdog}
	if *watchdog == 0 && spec.Enabled() {
		cfg.Watchdog.StallCycles = 20 * (*warmup + *window)
	}
	if *traceOut != "" {
		cfg.Trace = trace.New(*traceCap)
	}
	if *slice > 0 {
		*telemetry_ = true
		sw := os.Stderr
		if *sliceOut != "" {
			f, err := os.Create(*sliceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			sw = f
		}
		writer, err := telemetry.NewSliceWriter(sw, *sliceFormat)
		if err != nil {
			fatal(err)
		}
		cfg.SliceEvery = *slice
		cfg.SliceWriter = writer
	}
	if *analyze {
		*telemetry_ = true
	}
	// The obs server needs a registry to expose, but -obs alone does
	// not add the textual dump to the report: stdout stays
	// byte-identical to an unobserved run.
	if *telemetry_ || *obsAddr != "" {
		cfg.Telemetry = telemetry.New()
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		*ckptDir = "."
	}
	cfg.Checkpoint = machine.CheckpointSpec{Every: *ckptEvery, Dir: *ckptDir, Keep: *ckptKeep}

	label := fmt.Sprintf("%s k=%d n=%d p=%d", *mapSel, *k, *n, *contexts)
	var bridge *obs.Bridge
	if *obsAddr != "" {
		bridge = obs.NewBridge()
		srv, err := obs.NewServer(*obsAddr, bridge)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "simrun: observability at http://%s/\n", srv.Addr())
		cfg.Observer = bridge.MachineObserver(label, *warmup+*window)
	}

	var mach *machine.Machine
	if *restore != "" {
		ck, err := checkpoint.ReadFile(*restore)
		if err != nil {
			fatal(err)
		}
		mach, err = machine.RestoreFrom(cfg, ck)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "simrun: resuming from %s at P-cycle %d\n", *restore, mach.Now())
	} else {
		var err error
		mach, err = machine.New(cfg)
		if err != nil {
			fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// writeLedger appends this run's record — success or failure — so
	// the ledger is a complete history, not a survivor's log.
	writeLedger := func(met *machine.Metrics, runErr error, wall time.Duration) {
		if *ledger == "" {
			return
		}
		rec := obs.NewRunRecord("simrun")
		rec.Label = label
		rec.Kernel = kernel.String()
		rec.FillMachine(mach)
		rec.FillOutcome(wall, mach.Now())
		if runErr != nil {
			rec.Error = runErr.Error()
		}
		rec.Metrics = met
		if err := obs.AppendLedger(*ledger, rec); err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
		}
	}

	t0 := time.Now()
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: *warmup, Window: *window, ResumeFrom: true})
	met := res.Metrics
	if err != nil {
		if bridge != nil {
			bridge.Fail("machine", err)
		}
		writeLedger(nil, err, time.Since(t0))
		var rep *faults.StallReport
		if errors.As(err, &rep) {
			fmt.Fprintf(os.Stderr, "simrun: %v\ndiagnostic snapshot:\n%s\n", rep, rep.Snapshot)
			if rep.Checkpoint != "" {
				fmt.Fprintf(os.Stderr, "emergency checkpoint: %s (resume with -restore after raising -watchdog)\n", rep.Checkpoint)
			}
			os.Exit(2)
		}
		if p := mach.LastCheckpoint(); p != "" && errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "simrun: interrupted; checkpoint written to %s (resume with -restore)\n", p)
		}
		fatal(err)
	}
	writeLedger(&met, nil, time.Since(t0))

	fmt.Printf("machine                  %v, %d context(s), network %dx processor clock\n", tor, *contexts, *ratio)
	fmt.Printf("mapping                  %s (d = %.2f hops)\n", m.Name, m.AvgDistance(tor))
	fmt.Printf("window                   %d P-cycles (%d N-cycles) after %d warmup\n", met.PCycles, met.NCycles, *warmup)
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
	fmt.Printf("kernel                   %s: %d cycles executed, %d skipped (%.1f%% skip ratio)\n",
		kernel, met.CyclesTicked, met.CyclesSkipped, 100*met.SkipRatio())
	if met.SWTraps > 0 {
		fmt.Printf("LimitLESS traps          %d\n", met.SWTraps)
	}
	if spec.Enabled() {
		fmt.Printf("fault spec               %s\n", spec.String())
		fmt.Printf("messages dropped         %d\n", met.DroppedMsgs)
		fmt.Printf("request retries          %d (+%d home-side)\n", met.Retries, met.HomeRetries)
		fmt.Printf("link fault cycles        %d channel·N-cycles\n", met.LinkFaultCycles)
	}
	mach.FlushSlices()
	if cfg.SliceWriter != nil {
		if err := cfg.SliceWriter.Err(); err != nil {
			fatal(err)
		}
	}
	if *telemetry_ {
		attr := mach.Attribution()
		fmt.Printf("cycle attribution        %s (total %d)\n", attr, attr.Total())
		fmt.Printf("telemetry registry:\n")
		if err := cfg.Telemetry.Dump(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *analyze {
		report.RenderBottlenecks(os.Stdout, cfg.Telemetry.Export())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, cfg.Trace.Events()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}
