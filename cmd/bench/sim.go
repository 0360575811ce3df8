package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/sweepgrid"
	"locality/internal/telemetry"
	"locality/internal/workload"
)

// simParams sizes one simulation workload. Every cell goes through
// sweepgrid, so a cell's machine is exactly the one cmd/sweep builds,
// with the compute grain and thread stagger adjusted where set.
type simParams struct {
	Radix    int
	Contexts []int
	// Mappings is a mapsel selector list; %[1]d stands for the seed.
	Mappings string
	// Grain is the workload's compute burst in P-cycles; 0 keeps the
	// machine default of 20.
	Grain int
	// Stagger applies the gain-scale settings (experiments.RunGainScale):
	// staggered thread start, a cache that holds every context's state
	// words, and the large-machine model preset for the gain error.
	Stagger        bool
	Warmup, Window int64
	// Parallel runs a pass's cells on the engine's workers; otherwise
	// they run one after another.
	Parallel bool
}

func sweepParams(short bool) any {
	p := simParams{
		Radix: 8, Contexts: []int{1, 2, 4},
		Mappings: "identity,diag:1,diag:2,diag:3,dilation:3,rowshuffle:%[1]d,bitrev,random:%[1]d,antilocal:2",
		Warmup:   4000, Window: 12000, Parallel: true,
	}
	if short {
		p.Radix, p.Contexts, p.Mappings, p.Warmup, p.Window = 4, []int{1, 2}, "identity,random:%[1]d", 500, 1500
	}
	return p
}

func idleParams(short bool) any {
	p := simParams{Radix: 8, Contexts: []int{2}, Mappings: "random:%[1]d", Grain: 2000, Warmup: 2000, Window: 1_000_000}
	if short {
		p.Radix, p.Window = 4, 50_000
	}
	return p
}

func scaleParams(short bool) any {
	p := simParams{Radix: 100, Contexts: []int{1}, Mappings: "identity,random:%[1]d", Grain: 4000, Stagger: true, Warmup: 4000, Window: 8000}
	if short {
		p.Radix, p.Warmup, p.Window = 16, 1000, 4000
	}
	return p
}

// setupSim resolves the grid and builds the first pass's machines.
func setupSim(params func(bool) any) func(e *env) (session, error) {
	return func(e *env) (session, error) {
		s, err := newSimSession(e, params(e.short).(simParams))
		if err != nil {
			return nil, err
		}
		if s.next, err = s.build(); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func newSimSession(e *env, p simParams) (*simSession, error) {
	g, err := sweepgrid.New(sweepgrid.Spec{
		Radix: p.Radix, Dims: 2, Contexts: p.Contexts,
		Mappings: fmt.Sprintf(p.Mappings, e.seed), Warmup: p.Warmup, Window: p.Window,
	})
	if err != nil {
		return nil, err
	}
	s := &simSession{e: e, p: p, g: g, workers: 1}
	if p.Parallel {
		s.workers = e.workers
	}
	return s, nil
}

// simSession runs passes over a sweepgrid: every cell once per pass.
// A cell's Execute is one operation; the work is simulated P-cycles over
// the passes' wall clock.
type simSession struct {
	e       *env
	p       simParams
	g       *sweepgrid.Grid
	workers int
	// next holds the machines set-up built for the next untraced pass.
	next     []*machine.Machine
	newTime  time.Duration // summed machine.New time over built machines
	newCount int
	// first is the first completed pass's output: the reference every
	// later pass, traced or not, must reproduce exactly.
	first []goldenCell
}

func (s *simSession) close() {}

// config is cell i's machine configuration.
func (s *simSession) config(i int) machine.Config {
	cfg := s.g.Config(i)
	if s.p.Grain > 0 {
		cfg.ReadCompute, cfg.WriteCompute = s.p.Grain, s.p.Grain
	}
	if s.p.Stagger {
		for cfg.CacheLines < cfg.Contexts*cfg.Topo.Nodes() {
			cfg.CacheLines *= 2
		}
		cfg.Workload = workload.RelaxationConfig{
			Graph: cfg.Topo, Map: cfg.Mapping, Instances: cfg.Contexts, LineSize: cfg.LineSize,
			ReadCompute: cfg.ReadCompute, WriteCompute: cfg.WriteCompute, Stagger: true,
		}
	}
	return cfg
}

// build constructs one pass's machines.
func (s *simSession) build() ([]*machine.Machine, error) {
	ms := make([]*machine.Machine, s.g.Len())
	for i := range ms {
		t0 := time.Now()
		m, err := machine.New(s.config(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.g.Key(i), err)
		}
		s.newTime += time.Since(t0)
		s.newCount++
		ms[i] = m
	}
	return ms, nil
}

// cellProbe accumulates one traced cell's counts at the run loop's
// chunk boundaries (machine.Config.Observer). The window counters reset
// once, at the end of warm-up, where the run loop always observes; the
// probe keeps the last warm-up reading so its totals cover the whole
// run.
type cellProbe struct {
	warmup                  int64
	pre, post               machine.Metrics
	executed                int64 // executed P-cycles up to the last observation
	samples, activeSum      int64
	routerSteps, clockRatio float64
}

func (p *cellProbe) observe(m *machine.Machine) {
	met := m.Measure()
	if m.Now() <= p.warmup {
		p.pre = met
	} else {
		p.post = met
	}
	executed := p.pre.CyclesTicked + p.post.CyclesTicked
	active := int64(m.Network().ActiveRouters())
	p.routerSteps += float64(active) * float64(executed-p.executed) * p.clockRatio
	p.executed = executed
	p.samples++
	p.activeSum += active
}

type cellOut struct {
	met   machine.Metrics
	exec  time.Duration
	mach  *machine.Machine
	probe *cellProbe
}

// runPass executes every cell once. Untraced, it executes the machines
// set-up built; traced, each cell builds its own machine with telemetry
// and a chunk-boundary probe attached.
func (s *simSession) runPass(ctx context.Context, ms []*machine.Machine, tr *tracer) ([]engine.Result[cellOut], engine.Stats) {
	pass := tr.begin("pass", 0, 0)
	defer tr.end(pass)
	cells := make([]engine.Cell[cellOut], s.g.Len())
	for i := range cells {
		cells[i] = engine.Cell[cellOut]{Key: s.g.Key(i), Run: func(ctx context.Context) (cellOut, error) {
			cs := tr.begin("cell", pass, int64(i))
			defer tr.end(cs)
			var out cellOut
			if tr == nil {
				out.mach = ms[i]
			} else {
				cfg := s.config(i)
				out.probe = &cellProbe{warmup: s.p.Warmup, clockRatio: float64(cfg.ClockRatio)}
				cfg.Telemetry = telemetry.New()
				cfg.Observer = out.probe.observe
				ns := tr.begin("machine.New", cs, int64(i))
				m, err := machine.New(cfg)
				tr.end(ns)
				if err != nil {
					return out, err
				}
				out.mach = m
			}
			es := tr.begin("machine.Execute", cs, int64(i))
			t0 := time.Now()
			res, err := out.mach.Execute(ctx, machine.RunSpec{Warmup: s.p.Warmup, Window: s.p.Window})
			out.exec = time.Since(t0)
			tr.end(es)
			out.met = res.Metrics
			return out, err
		}}
	}
	return engine.Grid(ctx, cells, engine.Options[cellOut]{Exec: engine.Exec{Workers: s.workers}})
}

// check validates one cell: it ran, the fabric's invariants hold, work
// was done, and its output matches the golden and the first pass.
func (s *simSession) check(i int, r engine.Result[cellOut]) error {
	if r.Err != nil {
		return r.Err
	}
	if err := r.Row.mach.Network().Check(); err != nil {
		return err
	}
	if r.Row.met.Transactions <= 0 {
		return fmt.Errorf("no transactions completed")
	}
	if g := s.e.golden; g != nil && (i >= len(g.Cells) || g.Cells[i].Key != r.Key || g.Cells[i].Metrics != r.Row.met) {
		return fmt.Errorf("golden mismatch")
	}
	if s.first != nil && s.first[i].Metrics != r.Row.met {
		return fmt.Errorf("output differs from the first pass")
	}
	return nil
}

// simTotals accumulates traced passes for the per-layer metrics.
type simTotals struct {
	passes                                 int
	exec                                   time.Duration
	ticked, skipped                        float64
	msgs, txns, routerSteps                float64
	winMsgs, winTxns, msgLatSum, txnLatSum float64
	utilSum, cellCount, activeSum, samples float64
	busy, cycles, accesses, misses         float64
}

func (t *simTotals) add(r engine.Result[cellOut]) {
	o := r.Row
	t.exec += o.exec
	m := o.met
	t.winMsgs += float64(m.Messages)
	t.winTxns += float64(m.Transactions)
	t.msgLatSum += m.MsgLatency * float64(m.Messages)
	t.txnLatSum += m.TxnLatency * float64(m.Transactions)
	t.utilSum += m.ChannelUtilization
	t.cellCount++
	p := o.probe
	t.msgs += float64(p.pre.Messages + p.post.Messages)
	t.txns += float64(p.pre.Transactions + p.post.Transactions)
	t.routerSteps += p.routerSteps
	t.activeSum += float64(p.activeSum)
	t.samples += float64(p.samples)
	for _, v := range o.mach.Telemetry().Snapshot() {
		switch v.Name {
		case "kernel/cycles_ticked":
			t.ticked += v.Value
		case "kernel/cycles_skipped":
			t.skipped += v.Value
		case "proc/busy_cycles":
			t.busy += v.Value
			t.cycles += v.Value
		case "proc/switch_cycles", "proc/idle_cycles":
			t.cycles += v.Value
		case "proc/accesses":
			t.accesses += v.Value
		case "proc/misses":
			t.misses += v.Value
		}
	}
}

func (s *simSession) measure(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	smp := &sample{layers: map[string]float64{}, costs: map[string]hostCost{}}
	var tot simTotals
	var cellTime, wall time.Duration
	var allocBytes, pcycles, okPcycles float64
	cellPcycles := float64(s.p.Warmup + s.p.Window)
	var last []engine.Result[cellOut]
	// At least two passes, so a slow host still gives each cell two
	// samples; then more while another average pass fits in d.
	for pass := 0; pass < 2 || wall+wall/time.Duration(pass) <= d; pass++ {
		var ms []*machine.Machine
		if tr == nil {
			ms, s.next = s.next, nil
			if ms == nil {
				var err error
				if ms, err = s.build(); err != nil {
					return nil, err
				}
			}
		}
		var before, after runtime.MemStats
		if tr == nil {
			runtime.ReadMemStats(&before)
		}
		results, st := s.runPass(ctx, ms, tr)
		if tr == nil {
			runtime.ReadMemStats(&after)
			allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
			pcycles += float64(len(results)) * cellPcycles
		}
		wall += st.Wall
		cellTime += st.CellTime
		ok := true
		for i, r := range results {
			smp.attempted++
			if err := s.check(i, r); err != nil {
				smp.failed++
				ok = false
				smp.note(fmt.Sprintf("%s: %v", r.Key, err))
				continue
			}
			smp.ops = append(smp.ops, r.Row.exec)
			okPcycles += cellPcycles
			if tr != nil {
				tot.add(r)
			}
		}
		if ok && s.first == nil {
			s.first = make([]goldenCell, len(results))
			for i, r := range results {
				s.first[i] = goldenCell{Key: r.Key, Metrics: r.Row.met}
			}
		}
		if tr != nil {
			tot.passes++
		}
		last = results
	}
	smp.workPerS = okPcycles / wall.Seconds()
	smp.cells = s.first
	smp.heapMB = liveHeapMB()
	runtime.KeepAlive(last) // the last pass's machines count toward the live heap
	if tr == nil {
		smp.layers["machine.new_ms"] = millis(s.newTime) / float64(s.newCount)
		smp.layers["machine.alloc_mb_per_mpcycle"] = allocBytes / 1e6 / (pcycles / 1e6)
		smp.layers["engine.parallelism"] = float64(cellTime) / float64(wall)
		if s.first != nil {
			smp.layers["model.gain_err_pct"] = s.gainErrPct()
		}
	} else if tot.passes > 0 {
		// Live bytes per node: the heap with the last pass's machines
		// reachable, less the heap once they are dropped.
		with := smp.heapMB
		for i := range last {
			last[i].Row.mach = nil
		}
		nodes := float64(s.g.Tor.Nodes() * len(last))
		smp.layers["machine.live_bytes_per_node"] = (with - liveHeapMB()) * 1e6 / nodes
		tot.fill(smp)
	}
	return smp, nil
}

// fill writes the traced per-layer metrics. Counts are per pass, so
// they repeat exactly for a given seed.
func (t *simTotals) fill(smp *sample) {
	n := float64(t.passes)
	l := smp.layers
	l["sim.skip_ratio"] = t.skipped / (t.ticked + t.skipped)
	l["sim.executed_cycles"] = t.ticked / n
	l["sim.host_ns_per_executed_cycle"] = float64(t.exec.Nanoseconds()) / t.ticked
	l["netsim.msgs"] = t.winMsgs / n
	l["netsim.latency_ncycles"] = t.msgLatSum / t.winMsgs
	l["netsim.channel_util"] = t.utilSum / t.cellCount
	l["netsim.active_routers_mean"] = t.activeSum / t.samples
	l["cohsim.txns"] = t.winTxns / n
	l["cohsim.msgs_per_txn"] = t.winMsgs / t.winTxns
	l["cohsim.txn_latency_pcycles"] = t.txnLatSum / t.winTxns
	l["procsim.busy_frac"] = t.busy / t.cycles
	l["procsim.miss_ratio"] = t.misses / t.accesses
	smp.costs["netsim.host_ns_per_msg"] = hostCost{[]string{"netsim", "topology"}, t.msgs}
	smp.costs["netsim.host_ns_per_router_step"] = hostCost{[]string{"netsim", "topology"}, t.routerSteps}
	smp.costs["cohsim.host_ns_per_txn"] = hostCost{[]string{"cohsim", "cachesim"}, t.txns}
	smp.costs["procsim.host_ns_per_access"] = hostCost{[]string{"procsim", "workload"}, t.accesses}
}

// gainErrPct is the model's accuracy on the first pass: the mean over
// context counts of |G_sim − G_model| / G_model, in percent, where G is
// the random mapping's inter-transaction time over the identity
// mapping's and the model is solved at the random mapping's measured
// distance. Zero when the grid lacks either mapping.
func (s *simSession) gainErrPct() float64 {
	var sum float64
	var n int
	for _, p := range s.p.Contexts {
		var ideal, random *machine.Metrics
		var dRandom float64
		for i := range s.first {
			m, cp := s.g.Cell(i)
			if cp != p {
				continue
			}
			switch {
			case m.Name == "identity":
				ideal = &s.first[i].Metrics
			case strings.HasPrefix(m.Name, "random-"):
				random = &s.first[i].Metrics
				dRandom = m.AvgDistance(s.g.Tor)
			}
		}
		if ideal == nil || random == nil {
			continue
		}
		model := core.Alewife(p, 1)
		if s.p.Stagger {
			model = core.AlewifeLargeScale(p, 1)
			model.App.Grain = workload.RelaxationConfig{
				Graph: s.g.Tor, Instances: p, LineSize: 1,
				ReadCompute: s.p.Grain, WriteCompute: s.p.Grain,
			}.GrainEstimate(1)
		}
		solIdeal, err1 := model.Solve()
		solRandom, err2 := model.WithDistance(dRandom).Solve()
		if err1 != nil || err2 != nil {
			continue
		}
		gModel := solRandom.IssueTime / solIdeal.IssueTime
		gSim := random.InterTxnTime / ideal.InterTxnTime
		sum += math.Abs(gSim-gModel) / gModel
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
