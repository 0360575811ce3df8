// Command sweep runs a grid of full-system simulations — mappings ×
// context counts — and emits one CSV row of measurements per run, for
// custom studies beyond the canned figures:
//
//	sweep -mappings suite -contexts 1,2,4
//	sweep -k 4 -mappings identity,random:1,antilocal -contexts 1 -ratio 1
//	sweep -mappings random:1 -contexts 1 -prefetch -out results.csv
//	sweep -mappings suite -contexts 1,2,4 -workers 8 -progress
//
// Columns: mapping, d, contexts, prefetch, B, g, tm, rm, Tm, Tt, tt,
// rt, utilization.
//
// The grid definition, cell configuration, and row formatting live in
// internal/sweepgrid, shared with the model-serving /v1/sweep endpoint,
// which runs the cells on the same engine — the same grid produces
// byte-identical rows from either.
//
// Cells run on -workers goroutines (default GOMAXPROCS) through the
// experiment engine; rows are still emitted in grid order, so the CSV
// is byte-identical at any worker count. A cell that fails
// (watchdog stall report, configuration error, or panic) emits its row
// with error=<message> in the first measurement column; the rest of
// the grid still runs and sweep exits nonzero at the end.
//
// The output's first line is a "# kernel=<kind>" comment recording the
// execution kernel; all kernels produce bit-identical rows, but a
// resumed sweep refuses a resume file recorded under a different
// kernel rather than silently mixing provenance.
//
// Interrupted sweeps resume: -resume old.csv re-emits the completed
// rows of a partial output verbatim and runs only the cells that are
// missing, errored, or cut off mid-write. The merged output streams in
// grid order and is byte-identical to an uninterrupted sweep's
// (simulations are deterministic, so re-run cells reproduce the rows
// the interrupted sweep would have written):
//
//	sweep -mappings suite -contexts 1,2,4 -out results.csv
//	^C
//	sweep -mappings suite -contexts 1,2,4 -resume results.csv -out results2.csv
//
// Observability on long sweeps: -trace-dir writes one Perfetto-loadable
// Chrome trace JSON per cell; -progress prints a line to stderr as each
// cell starts and finishes, the finish line carrying the grid's
// completed/total count and ETA; -obs serves the live observability
// endpoints (/metrics Prometheus exposition, /statusz run status with
// per-cell progress and ETA, /healthz, and /debug/pprof) on the given
// address while the sweep runs; -ledger appends one structured run
// record per invocation to a JSONL ledger.
//
// -capture-dir writes one replayable reference trace (<cell>.lref,
// package internal/replay) per cell: the recorded streams can be
// re-run with tracetool replay or fitted with tracetool fit. Capturing
// never changes the simulated results or the CSV.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/netsim"
	"locality/internal/obs"
	"locality/internal/replay"
	"locality/internal/sweepgrid"
	"locality/internal/telemetry"
	"locality/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

func parseContexts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("sweep: bad context count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty context list %q", s)
	}
	return out, nil
}

// cellExtras is the per-cell observability configuration layered on
// top of the sweepgrid cell: traces, capture, and the live bridge.
// None of it changes the simulated results.
type cellExtras struct {
	traceDir   string
	traceCap   int
	captureDir string
	bridge     *obs.Bridge
}

// runCell builds and measures one grid cell, attaching the requested
// observability. Panics from deep inside the simulator are recovered
// by the engine, so one broken cell cannot kill the sweep.
func runCell(ctx context.Context, g *sweepgrid.Grid, i int, x cellExtras) (machine.Metrics, error) {
	cfg := g.Config(i)
	stem := g.FileStem(i)
	if x.traceDir != "" {
		cfg.Trace = trace.New(x.traceCap)
	}
	if x.captureDir != "" {
		cfg.Capture = replay.NewCapture()
	}
	if x.bridge != nil {
		// The bridge needs a registry to snapshot; attaching one is
		// observational, so the CSV stays byte-identical either way.
		cfg.Telemetry = telemetry.New()
		cfg.Observer = x.bridge.MachineObserver(g.Key(i), g.Spec.Warmup+g.Spec.Window)
	}
	mach, err := machine.New(cfg)
	if err != nil {
		return machine.Metrics{}, err
	}
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: g.Spec.Warmup, Window: g.Spec.Window})
	if err != nil {
		return machine.Metrics{}, err
	}
	met := res.Metrics
	if x.traceDir != "" {
		f, err := os.Create(filepath.Join(x.traceDir, stem+".trace.json"))
		if err != nil {
			return machine.Metrics{}, err
		}
		if err := telemetry.WriteChromeTrace(f, cfg.Trace.Events()); err != nil {
			f.Close()
			return machine.Metrics{}, err
		}
		if err := f.Close(); err != nil {
			return machine.Metrics{}, err
		}
	}
	if x.captureDir != "" {
		tr, err := mach.CapturedTrace(g.Spec.Warmup, g.Spec.Window)
		if err != nil {
			return machine.Metrics{}, err
		}
		if err := replay.WriteFile(filepath.Join(x.captureDir, stem+".lref"), tr); err != nil {
			return machine.Metrics{}, err
		}
	}
	return met, nil
}

// rowKey identifies a grid cell in a sweep CSV: mapping name and
// context count, the two columns that vary across the grid.
func rowKey(mappingName, contexts string) string {
	return mappingName + "\x00" + contexts
}

// resumeRows parses a partial sweep output. The kernel comment, when
// present, must name this invocation's kernel — rows swept under a
// different kernel are refused outright rather than silently mixed
// (files from sweeps predating the comment carry no kernel line and
// are accepted). The CSV header must match the current invocation's
// exactly: a mismatch means the old rows have other columns, such as
// the fault-accounting columns earlier builds wrote, and are not
// comparable. Only lines ended by a newline count: a row the
// interruption cut off, even inside its last field, is dropped, as is
// anything after a malformed row. Completed rows are returned keyed by
// rowKey, later duplicates winning.
func resumeRows(r io.Reader, g *sweepgrid.Grid) (map[string][]string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading resume file: %w", err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	br := bufio.NewReader(bytes.NewReader(data))
	if peek, _ := br.Peek(1); len(peek) == 1 && peek[0] == '#' {
		line, err := br.ReadString('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("reading resume kernel comment: %w", err)
		}
		line = strings.TrimSpace(line)
		if got, want := line, g.KernelComment(); got != want {
			return nil, fmt.Errorf("resume file was swept with %q, this sweep runs %q: refusing to mix rows from different kernels (rerun with the matching -kernel)",
				strings.TrimPrefix(got, "# kernel="), g.Kernel)
		}
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading resume header: %w", err)
	}
	if !slices.Equal(first, g.Header()) {
		return nil, fmt.Errorf("resume file header %q does not match this sweep's %q",
			strings.Join(first, ","), strings.Join(g.Header(), ","))
	}
	rows := make(map[string][]string)
	for {
		rec, err := cr.Read()
		if err != nil {
			// io.EOF is the clean end; any other error is a row the
			// interrupted sweep never finished writing.
			return rows, nil
		}
		if len(rec) < 4 {
			continue
		}
		rows[rowKey(rec[0], rec[2])] = rec
	}
}

// usableResumeRow reports whether a cached row can stand in for
// re-running its cell: full width, the exact identity prefix this
// sweep would write, and a real measurement (not an error= marker or
// padding) in the first measurement column.
func usableResumeRow(row, prefix []string, width int) bool {
	return len(row) == width &&
		slices.Equal(row[:len(prefix)], prefix) &&
		row[len(prefix)] != "" &&
		!strings.HasPrefix(row[len(prefix)], "error=")
}

func main() {
	k := flag.Int("k", 8, "torus radix")
	n := flag.Int("n", 2, fmt.Sprintf("torus dimensions, 1 to %d", netsim.MaxDims))
	contextsFlag := flag.String("contexts", "1", "comma-separated context counts")
	mappingsFlag := flag.String("mappings", "suite", "comma-separated mapping selectors (see internal/mapsel)")
	warmup := flag.Int64("warmup", 4000, "warmup P-cycles")
	window := flag.Int64("window", 12000, "measurement window P-cycles")
	ratio := flag.Int("ratio", 2, "network cycles per processor cycle")
	prefetch := flag.Bool("prefetch", false, "enable neighbor prefetching in the workload")
	out := flag.String("out", "", "output CSV path (default stdout)")
	watchdog := flag.Int64("watchdog", 0, "abort a cell after this many P-cycles without progress (0 disables)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "stream per-cell progress, with the grid's count and ETA, to stderr")
	kernelFlag := flag.String("kernel", "event", "execution kernel: event (skip quiescent cycles) or tick (naive reference loop); rows are bit-identical either way")
	traceDir := flag.String("trace-dir", "", "directory for per-cell Chrome trace-event JSON files")
	traceCap := flag.Int("trace-cap", 1<<16, "per-cell trace ring-buffer capacity in events")
	captureDir := flag.String("capture-dir", "", "directory for per-cell replayable reference traces (.lref)")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics, /statusz, /healthz, /debug/pprof) on this address, e.g. localhost:9090")
	ledger := flag.String("ledger", "", "append a structured run record to this JSONL ledger (e.g. ledger.jsonl)")
	resume := flag.String("resume", "", "partial output CSV from an interrupted sweep: reuse its completed rows, run only missing or errored cells")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var bridge *obs.Bridge
	if *obsAddr != "" {
		bridge = obs.NewBridge()
		srv, err := obs.NewServer(*obsAddr, bridge)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: observability at http://%s/\n", srv.Addr())
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *captureDir != "" {
		if err := os.MkdirAll(*captureDir, 0o755); err != nil {
			fatal(err)
		}
	}

	contexts, err := parseContexts(*contextsFlag)
	if err != nil {
		fatal(err)
	}
	spec := sweepgrid.Spec{
		Radix: *k, Dims: *n, Contexts: contexts, Mappings: *mappingsFlag,
		Warmup: *warmup, Window: *window, Ratio: *ratio, Prefetch: *prefetch, Kernel: *kernelFlag,
		Watchdog: *watchdog,
	}
	g, err := sweepgrid.New(spec)
	if err != nil {
		fatal(err)
	}

	// Read the resume file in full before creating the output: -out and
	// -resume may name the same path.
	cached := map[string][]string{}
	if *resume != "" {
		rf, err := os.Open(*resume)
		if err != nil {
			fatal(err)
		}
		cached, err = resumeRows(rf, g)
		rf.Close()
		if err != nil {
			fatal(err)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	// The kernel comment precedes the CSV header so resumed sweeps can
	// refuse rows produced under a different kernel.
	if _, err := fmt.Fprintln(w, g.KernelComment()); err != nil {
		fatal(err)
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write(g.Header()); err != nil {
		fatal(err)
	}

	// The grid streams in sweepgrid's cell order (contexts-major,
	// mappings-minor). Cells whose rows the resume file already holds
	// are prefilled and never run; the rest are submitted to the engine
	// with their position in the full grid remembered, so the merged
	// output streams in grid order.
	extras := cellExtras{traceDir: *traceDir, traceCap: *traceCap, captureDir: *captureDir, bridge: bridge}
	var fullIndex []int // submitted cell -> full-grid position
	rows := make([][]string, g.Len())
	var cells []engine.Cell[machine.Metrics]
	reused := 0
	for i := 0; i < g.Len(); i++ {
		i := i
		_, p := g.Cell(i)
		if row, ok := cached[rowKey(g.Prefix(i)[0], strconv.Itoa(p))]; ok && usableResumeRow(row, g.Prefix(i), len(g.Header())) {
			rows[i] = row
			reused++
			continue
		}
		fullIndex = append(fullIndex, i)
		cells = append(cells, engine.Cell[machine.Metrics]{
			Key: g.Key(i),
			Run: func(ctx context.Context) (machine.Metrics, error) {
				return runCell(ctx, g, i, extras)
			},
		})
	}
	if *resume != "" {
		fmt.Fprintf(os.Stderr, "sweep: resuming: %d of %d rows reused, %d to run\n", reused, g.Len(), len(cells))
	}

	// emit flushes the longest completed prefix of the full grid, so
	// rows stream out in grid order no matter which worker — or which
	// earlier sweep — produced them.
	nextEmit := 0
	emit := func() {
		for nextEmit < len(rows) && rows[nextEmit] != nil {
			if err := cw.Write(rows[nextEmit]); err != nil {
				fatal(err)
			}
			nextEmit++
		}
		cw.Flush()
	}
	emit()

	failed := 0
	var prog io.Writer
	if *progress {
		prog = os.Stderr
	}
	var gridObs func(engine.Progress)
	if bridge != nil {
		gridObs = bridge.PublishGrid
	}
	// OnResult fires in grid order regardless of which worker finished
	// first, so rows stream to the CSV exactly as the sequential sweep
	// emitted them.
	opts := engine.Options[machine.Metrics]{
		Exec: engine.Exec{Workers: *workers, Progress: prog, Observer: gridObs},
		OnResult: func(r engine.Result[machine.Metrics]) {
			idx := fullIndex[r.Index]
			if r.Err != nil {
				failed++
				if bridge != nil {
					bridge.Fail(r.Key, r.Err)
				}
				fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", r.Key, r.Err)
				rows[idx] = g.ErrorRow(idx, r.Err)
			} else {
				rows[idx] = g.FormatRow(idx, r.Row)
			}
			emit()
		},
	}
	t0 := time.Now()
	_, stats := engine.Grid(ctx, cells, opts)
	if *ledger != "" {
		rec := obs.NewRunRecord("sweep")
		rec.Label = fmt.Sprintf("%s p=%s k=%d n=%d (%d cells, %d reused)", *mappingsFlag, *contextsFlag, *k, *n, g.Len(), reused)
		rec.Radix, rec.Dims, rec.Nodes, rec.Mapping = *k, *n, g.Tor.Nodes(), *mappingsFlag
		rec.Kernel = g.Kernel.String()
		rec.FillOutcome(time.Since(t0), int64(stats.Started)*(*warmup+*window))
		if failed > 0 {
			rec.Error = fmt.Sprintf("%d of %d cells failed", failed, len(cells))
		}
		if err := obs.AppendLedger(*ledger, rec); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d cells failed\n", failed, len(cells))
		os.Exit(1)
	}
}
