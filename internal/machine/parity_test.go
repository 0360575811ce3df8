package machine

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"locality/internal/checkpoint"
	"locality/internal/faults"
	"locality/internal/mapping"
	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/telemetry"
	"locality/internal/topology"
	"locality/internal/trace"
	"locality/internal/workload"
)

// parityCell is one grid point of the tick-vs-event differential test.
type parityCell struct {
	name       string
	mapName    string
	contexts   int
	spec       *faults.Spec
	localDelay int
}

func parityGrid() []parityCell {
	faulty := &faults.Spec{Seed: 7, LossRate: 0.01, LinkMTTF: 3000, StallMin: 8, StallMax: 64}
	var cells []parityCell
	for _, mapName := range []string{"identity", "random"} {
		for _, contexts := range []int{1, 2} {
			for _, spec := range []*faults.Spec{nil, faulty} {
				// LocalDelay 9 (vs the default 1) spans multiple
				// P-cycles, exercising the lazy-drain skip path where
				// the fabric's only pending work is local deliveries.
				for _, localDelay := range []int{0, 9} {
					name := mapName + "/p" + strconv.Itoa(contexts)
					if spec != nil {
						name += "/faults"
					}
					if localDelay != 0 {
						name += "/ld" + strconv.Itoa(localDelay)
					}
					cells = append(cells, parityCell{name: name, mapName: mapName,
						contexts: contexts, spec: spec, localDelay: localDelay})
				}
			}
		}
	}
	return cells
}

// parityTopoMapping builds a cell's torus and mapping; shared with the
// capture→replay round-trip tests so both suites run the same grid.
func parityTopoMapping(c parityCell) (*topology.Torus, *mapping.Mapping) {
	tor := topology.MustNew(4, 2)
	m := mapping.Identity(tor)
	if c.mapName == "random" {
		m = mapping.Random(tor, 1)
	}
	return tor, m
}

func parityMappingName(c parityCell) string {
	_, m := parityTopoMapping(c)
	return m.Name
}

func buildParityMachine(t *testing.T, c parityCell, mode sim.KernelKind, tr *trace.Tracer) *Machine {
	t.Helper()
	tor, m := parityTopoMapping(c)
	cfg := DefaultConfig(tor, m, c.contexts)
	cfg.Faults = c.spec
	cfg.Kernel = mode
	cfg.Trace = tr
	cfg.LocalDelay = c.localDelay
	if c.spec != nil {
		cfg.Watchdog = faults.Watchdog{StallCycles: 200000}
	}
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// kernelMeta drops trace events that describe how the kernel executed
// the run (skip markers) rather than what the simulated
// machine did; parity comparisons exclude them.
func kernelMeta(e trace.Event) bool {
	return e.Kind == trace.KindKernelSkip
}

// sweepRow formats metrics exactly as cmd/sweep does (same float verb
// and precision), so byte-equality here implies byte-identical sweep
// CSV rows.
func sweepRow(met Metrics, withFaults bool) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	cols := []string{
		f(met.MsgSize), f(met.MsgsPerTxn), f(met.InterMsgTime), f(met.MsgRate),
		f(met.MsgLatency), f(met.TxnLatency), f(met.InterTxnTime), f(met.TxnRate),
		f(met.ChannelUtilization),
	}
	if withFaults {
		cols = append(cols,
			strconv.FormatInt(met.Retries, 10), strconv.FormatInt(met.HomeRetries, 10),
			strconv.FormatInt(met.DroppedMsgs, 10), strconv.FormatInt(met.LinkFaultCycles, 10))
	}
	return strings.Join(cols, ",")
}

// normalizeKernelStats zeroes the two Metrics fields that describe how
// the simulator executed the window rather than what the simulated
// machine did; everything else must be bit-identical across kernels.
func normalizeKernelStats(met Metrics) Metrics {
	met.CyclesTicked, met.CyclesSkipped = 0, 0
	return met
}

// TestKernelParity is the core kernel guarantee: the event kernel is
// bit-identical to the tick kernel — Metrics, sweep CSV rows, per-processor cycle
// accounting, and trace streams — across mappings, context counts,
// and fault injection.
func TestKernelParity(t *testing.T) {
	const warmup, window = 500, 2000
	for _, c := range parityGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			type result struct {
				label  string
				met    Metrics
				procs  []procsim.Stats
				events []trace.Event
				now    int64
			}
			run := func(label string, cell parityCell, mode sim.KernelKind) result {
				tr := trace.New(1 << 14)
				mach := buildParityMachine(t, cell, mode, tr)
				met := execMeasured(t, mach, warmup, window)
				procs := make([]procsim.Stats, 0)
				for node := 0; node < mach.cfg.Topo.Nodes(); node++ {
					procs = append(procs, mach.Processor(node).Snapshot())
				}
				// Skip markers are kernel bookkeeping, not machine
				// behavior: drop them before comparing.
				events := tr.Filter(func(e trace.Event) bool { return !kernelMeta(e) })
				return result{label: label, met: met, procs: procs, events: events, now: mach.Now()}
			}
			compare := func(tick, other result) {
				t.Helper()
				if tick.now != other.now {
					t.Fatalf("clocks diverged: tick %d, %s %d", tick.now, other.label, other.now)
				}
				if got, want := normalizeKernelStats(other.met), normalizeKernelStats(tick.met); !reflect.DeepEqual(got, want) {
					t.Errorf("Metrics differ:\n tick: %+v\n %s: %+v", want, other.label, got)
				}
				if tickRow, otherRow := sweepRow(tick.met, c.spec != nil), sweepRow(other.met, c.spec != nil); tickRow != otherRow {
					t.Errorf("sweep CSV rows differ:\n tick: %s\n %s: %s", tickRow, other.label, otherRow)
				}
				if !reflect.DeepEqual(tick.procs, other.procs) {
					t.Errorf("per-processor accounting differs:\n tick: %+v\n %s: %+v", tick.procs, other.label, other.procs)
				}
				if !reflect.DeepEqual(tick.events, other.events) {
					n := len(tick.events)
					if len(other.events) < n {
						n = len(other.events)
					}
					for i := 0; i < n; i++ {
						if tick.events[i] != other.events[i] {
							t.Errorf("trace streams diverge at event %d:\n tick: %v\n %s: %v", i, tick.events[i], other.label, other.events[i])
							break
						}
					}
					t.Errorf("trace streams differ (%d tick events, %d %s events)", len(tick.events), len(other.events), other.label)
				}
			}
			tick := run("tick", c, sim.KernelTick)
			event := run("event", c, sim.KernelEvent)
			compare(tick, event)

			// Self-consistency of the skip accounting in event mode.
			if got := event.met.CyclesTicked + event.met.CyclesSkipped; got != event.met.PCycles {
				t.Errorf("kernel accounting does not partition the window: %d + %d != %d",
					event.met.CyclesTicked, event.met.CyclesSkipped, event.met.PCycles)
			}
			if tick.met.CyclesSkipped != 0 {
				t.Errorf("tick kernel reported %d skipped cycles", tick.met.CyclesSkipped)
			}
		})
	}
}

// TestEventKernelActuallySkips guards against the event kernel
// silently degenerating into the tick kernel: on the default workload
// with its 20-cycle compute grain there are always quiescent spans.
func TestEventKernelActuallySkips(t *testing.T) {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Identity(tor), 1)
	cfg.ReadCompute, cfg.WriteCompute = 400, 400
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := execMeasured(t, mach, 1000, 4000)
	if met.CyclesSkipped == 0 {
		t.Fatal("event kernel skipped nothing on a compute-heavy workload")
	}
	if r := met.SkipRatio(); r < 0.3 {
		t.Errorf("skip ratio %.2f, want ≥ 0.3 on a 400-cycle compute grain", r)
	}
	if !strings.Contains(mach.DiagSnapshot(), "skip ratio") {
		t.Error("DiagSnapshot does not surface the skip statistics")
	}
}

// TestEventKernelSkipsWithSlowLocalDelivery guards the lazy-drain
// rule's payoff at the machine level: multi-P-cycle local deliveries
// (each thread's own-word directory request is a same-node message)
// must not pin the event kernel to per-cycle execution.
func TestEventKernelSkipsWithSlowLocalDelivery(t *testing.T) {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Identity(tor), 1)
	cfg.ReadCompute, cfg.WriteCompute = 400, 400
	cfg.LocalDelay = 15
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := execMeasured(t, mach, 1000, 4000)
	if r := met.SkipRatio(); r < 0.3 {
		t.Errorf("skip ratio %.2f with LocalDelay 15, want ≥ 0.3 (local deliveries should stay skippable)", r)
	}
}

// TestKernelParityObservedMidRun looks at the event kernel's processors
// from outside while they lag: the kernel ticks a processor only at
// cycles it is due at and brings it current when the run returns, or
// when the slicer syncs it mid-cycle. Processor snapshots taken by an
// Observer at every chunk boundary, the final Metrics, and the slice
// CSV (minus its kernel-dependent skip_ratio column) must match the
// tick kernel's, across grains, context counts, staggered starts and
// slicing.
func TestKernelParityObservedMidRun(t *testing.T) {
	tor := topology.MustNew(8, 2)
	mp := mapping.Random(tor, 5)
	type observed struct {
		procs  [][]procsim.Stats
		met    Metrics
		slices string
	}
	run := func(t *testing.T, mode sim.KernelKind, grain, contexts int, stagger bool, slice int64) observed {
		cfg := DefaultConfig(tor, mp, contexts)
		cfg.ReadCompute, cfg.WriteCompute = grain, grain
		cfg.Kernel = mode
		if stagger {
			cfg.Workload = workload.RelaxationConfig{
				Graph: tor, Map: mp, Instances: contexts, LineSize: cfg.LineSize,
				ReadCompute: grain, WriteCompute: grain, Stagger: true,
			}
		}
		var csvOut strings.Builder
		if slice > 0 {
			sw, err := telemetry.NewSliceWriter(&csvOut, "csv")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Telemetry, cfg.SliceEvery, cfg.SliceWriter = telemetry.New(), slice, sw
		}
		var obs observed
		cfg.Observer = func(m *Machine) {
			snap := make([]procsim.Stats, tor.Nodes())
			for i := range snap {
				snap[i] = m.Processor(i).Snapshot()
			}
			obs.procs = append(obs.procs, snap)
		}
		mach, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			res, err := mach.Execute(context.Background(), RunSpec{Cycles: 1001})
			if err != nil {
				t.Fatal(err)
			}
			obs.met = normalizeKernelStats(res.Metrics)
		}
		obs.slices = dropCSVColumn(t, csvOut.String(), "skip_ratio")
		return obs
	}
	for _, grain := range []int{20, 2000} {
		for _, contexts := range []int{1, 2, 4} {
			for _, stagger := range []bool{false, true} {
				for _, slice := range []int64{0, 333} {
					grain, contexts, stagger, slice := grain, contexts, stagger, slice
					name := fmt.Sprintf("grain%d/p%d/stagger=%v/slice%d", grain, contexts, stagger, slice)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						tick := run(t, sim.KernelTick, grain, contexts, stagger, slice)
						event := run(t, sim.KernelEvent, grain, contexts, stagger, slice)
						if len(tick.procs) != 7 || len(event.procs) != 7 {
							t.Fatalf("observer fired %d (tick) / %d (event) times, want 7", len(tick.procs), len(event.procs))
						}
						for i := range tick.procs {
							if !reflect.DeepEqual(tick.procs[i], event.procs[i]) {
								t.Errorf("processor snapshots differ at chunk boundary %d:\n tick:  %+v\n event: %+v", i+1, tick.procs[i], event.procs[i])
							}
						}
						if !reflect.DeepEqual(tick.met, event.met) {
							t.Errorf("Metrics differ:\n tick:  %+v\n event: %+v", tick.met, event.met)
						}
						if tick.slices != event.slices {
							t.Errorf("slice CSVs differ:\n tick:\n%s\n event:\n%s", tick.slices, event.slices)
						}
						if slice > 0 && strings.Count(event.slices, "\n") < 7007/333 {
							t.Errorf("slice CSV has too few rows:\n%s", event.slices)
						}
					})
				}
			}
		}
	}
}

// dropCSVColumn returns the CSV text without the named column.
func dropCSVColumn(t *testing.T, text, name string) string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatalf("slice stream is not valid CSV: %v", err)
	}
	var b strings.Builder
	col := -1
	for i, row := range rows {
		if i == 0 {
			for j, h := range row {
				if h == name {
					col = j
				}
			}
			if col < 0 {
				t.Fatalf("no %q column in %v", name, row)
			}
		}
		b.WriteString(strings.Join(append(row[:col:col], row[col+1:]...), ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSleepersMatchDenseEventKernel pins the processor calendar to the
// event kernel it replaced: the same machine run once with its
// processors registered as sleepers and once with every component
// ticked on every executed cycle must write byte-identical checkpoints
// at every chunk boundary (processor lookahead state, kernel
// accounting, attribution and slicer state included) and report
// identical Metrics, kernel accounting included.
func TestSleepersMatchDenseEventKernel(t *testing.T) {
	for _, c := range parityGrid() {
		for _, instrument := range []bool{false, true} {
			c, instrument := c, instrument
			name := c.name
			if instrument {
				name += "/telemetry"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run := func(sleepers bool) ([][]byte, Metrics) {
					tor, mp := parityTopoMapping(c)
					cfg := DefaultConfig(tor, mp, c.contexts)
					cfg.Faults, cfg.LocalDelay = c.spec, c.localDelay
					if instrument {
						sw, err := telemetry.NewSliceWriter(&strings.Builder{}, "csv")
						if err != nil {
							t.Fatal(err)
						}
						cfg.Telemetry, cfg.SliceEvery, cfg.SliceWriter = telemetry.New(), 333, sw
					}
					mach, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !sleepers {
						mach.kernel.SetSleepers(0, 0)
					}
					var snaps [][]byte
					var met Metrics
					// Prime-length chunks put Run boundaries at cycles
					// unrelated to the workload's phase.
					for i := 0; i < 7; i++ {
						res, err := mach.Execute(context.Background(), RunSpec{Cycles: 359})
						if err != nil {
							t.Fatal(err)
						}
						met = res.Metrics
						var b bytes.Buffer
						if err := checkpoint.Write(&b, mach.BuildCheckpoint(0)); err != nil {
							t.Fatal(err)
						}
						snaps = append(snaps, b.Bytes())
					}
					return snaps, met
				}
				denseSnaps, denseMet := run(false)
				sleepSnaps, sleepMet := run(true)
				for i := range denseSnaps {
					if !bytes.Equal(denseSnaps[i], sleepSnaps[i]) {
						t.Fatalf("checkpoints differ after chunk %d", i+1)
					}
				}
				if !reflect.DeepEqual(denseMet, sleepMet) {
					t.Errorf("Metrics differ:\n dense:    %+v\n sleepers: %+v", denseMet, sleepMet)
				}
			})
		}
	}
}
