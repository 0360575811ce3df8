package machine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"locality/internal/checkpoint"
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
	watchdog   Watchdog
	localDelay int
}

// guardWatchdog arms the fault checks — flit conservation, the fabric
// progress bound and the transaction-age bound — with a bound no
// healthy grid run reaches, polled every 97 P-cycles so the checks
// split each Execute call into many kernel Run calls whose boundaries
// align with neither the warmup nor a checkpoint period. Grid cells
// named "faults" run with it; they injected message loss and link
// faults until fault injection was removed, and now check that the
// armed watchdog changes nothing the grid compares.
var guardWatchdog = Watchdog{StallCycles: 20000, CheckEvery: 97}

func parityGrid() []parityCell {
	var cells []parityCell
	for _, mapName := range []string{"identity", "random"} {
		for _, contexts := range []int{1, 2} {
			for _, watchdog := range []Watchdog{{}, guardWatchdog} {
				// LocalDelay 9 (vs the default 1) spans multiple
				// P-cycles, exercising the lazy-drain skip path where
				// the fabric's only pending work is local deliveries.
				for _, localDelay := range []int{0, 9} {
					name := mapName + "/p" + strconv.Itoa(contexts)
					if watchdog.Enabled() {
						name += "/faults"
					}
					if localDelay != 0 {
						name += "/ld" + strconv.Itoa(localDelay)
					}
					cells = append(cells, parityCell{name: name, mapName: mapName,
						contexts: contexts, watchdog: watchdog, localDelay: localDelay})
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
	cfg.Kernel = mode
	cfg.Trace = tr
	cfg.LocalDelay = c.localDelay
	cfg.Watchdog = c.watchdog
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
func sweepRow(met Metrics) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	return strings.Join([]string{
		f(met.MsgSize), f(met.MsgsPerTxn), f(met.InterMsgTime), f(met.MsgRate),
		f(met.MsgLatency), f(met.TxnLatency), f(met.InterTxnTime), f(met.TxnRate),
		f(met.ChannelUtilization),
	}, ",")
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
// an armed watchdog, and local delivery delays.
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
				if tickRow, otherRow := sweepRow(tick.met), sweepRow(other.met); tickRow != otherRow {
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
// cycles it is due at and brings it current when the run returns.
// Processor snapshots taken by an Observer at every chunk boundary and
// the final Metrics must match the tick kernel's, across grains,
// context counts and staggered starts. With slice N > 0 the Observer
// also reads the telemetry registry every N P-cycles, as -obs
// publishes it (the watchdog's check interval sets the chunk
// boundaries): every value but the kernel's own accounting and cycle
// attribution must match too.
func TestKernelParityObservedMidRun(t *testing.T) {
	tor := topology.MustNew(8, 2)
	mp := mapping.Random(tor, 5)
	type observed struct {
		procs [][]procsim.Stats
		regs  [][]telemetry.Value
		met   Metrics
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
		if slice > 0 {
			cfg.Telemetry = telemetry.New()
			cfg.Watchdog = Watchdog{StallCycles: guardWatchdog.StallCycles, CheckEvery: slice}
		}
		var obs observed
		cfg.Observer = func(m *Machine) {
			snap := make([]procsim.Stats, tor.Nodes())
			for i := range snap {
				snap[i] = m.Processor(i).Snapshot()
			}
			obs.procs = append(obs.procs, snap)
			var reg []telemetry.Value
			for _, v := range m.Telemetry().Snapshot() {
				if !strings.HasPrefix(v.Name, "kernel/") && !strings.HasPrefix(v.Name, "attr/") {
					reg = append(reg, v)
				}
			}
			obs.regs = append(obs.regs, reg)
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
						// One chunk per 1001-cycle call, or ⌈1001/slice⌉.
						want := 7
						if slice > 0 {
							want *= int((1001 + slice - 1) / slice)
						}
						if len(tick.procs) != want || len(event.procs) != want {
							t.Fatalf("observer fired %d (tick) / %d (event) times, want %d", len(tick.procs), len(event.procs), want)
						}
						for i := range tick.procs {
							if !reflect.DeepEqual(tick.procs[i], event.procs[i]) {
								t.Errorf("processor snapshots differ at chunk boundary %d:\n tick:  %+v\n event: %+v", i+1, tick.procs[i], event.procs[i])
							}
							if !reflect.DeepEqual(tick.regs[i], event.regs[i]) {
								t.Errorf("registry readings differ at chunk boundary %d:\n tick:  %v\n event: %v", i+1, tick.regs[i], event.regs[i])
							}
						}
						if slice > 0 && len(event.regs[0]) == 0 {
							t.Error("observer read an empty registry")
						}
						if !reflect.DeepEqual(tick.met, event.met) {
							t.Errorf("Metrics differ:\n tick:  %+v\n event: %+v", tick.met, event.met)
						}
					})
				}
			}
		}
	}
}

// TestSleepersMatchDenseEventKernel pins the processor calendar to the
// event kernel it replaced: the same machine run once with its
// processors registered as sleepers and once with every component
// ticked on every executed cycle must write byte-identical checkpoints
// at every chunk boundary (processor lookahead state, kernel
// accounting and attribution included) and report
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
					cfg.LocalDelay, cfg.Watchdog = c.localDelay, c.watchdog
					if instrument {
						cfg.Telemetry = telemetry.New()
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
