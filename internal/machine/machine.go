// Package machine assembles the full-system simulator validating the
// paper's combined model: block-multithreaded processors (procsim),
// coherent caches driven by a limited-pointer directory protocol
// (cohsim), and a wormhole-routed torus network (netsim), with network
// switches clocked ClockRatio times faster than processors (2× in the
// reference architecture). The synthetic relaxation workload of
// Section 3.2 runs on top, and the machine reports exactly the
// quantities the paper measures: average inter-message injection time
// tm, message latency Tm, message rate rm, message size B, messages
// per transaction g, communication distance d, transaction latency Tt,
// and inter-transaction issue time tt.
package machine

import (
	"context"
	"fmt"

	"locality/internal/cachesim"
	"locality/internal/cohsim"
	"locality/internal/mapping"
	"locality/internal/netsim"
	"locality/internal/procsim"
	"locality/internal/replay"
	"locality/internal/sim"
	"locality/internal/telemetry"
	"locality/internal/topology"
	"locality/internal/trace"
	"locality/internal/workload"
)

// The reference architecture's processor timing, in P-cycles: Sparcle's
// block context switch cost Tc and the cost of a cache hit.
const (
	switchTime = 11
	hitLatency = 1
)

// Config describes one simulated machine plus workload.
type Config struct {
	// Topo is the machine's torus; the workload's communication graph
	// matches it, as in the paper's experiments.
	Topo *topology.Torus
	// Mapping assigns application threads to processors.
	Mapping *mapping.Mapping
	// Contexts is the hardware context count p (one application
	// instance per context).
	Contexts int
	// ClockRatio is the integer number of network cycles per processor
	// cycle (2 in the reference architecture).
	ClockRatio int
	// BufferDepth is the per-VC switch buffer depth in flits.
	BufferDepth int
	// CacheLines and LineSize size each node's cache.
	CacheLines, LineSize int
	// HWPointers bounds the directory's hardware sharer pointers
	// (0 = full map).
	HWPointers int
	// ReadCompute and WriteCompute are the workload compute bursts.
	ReadCompute, WriteCompute int
	// Workload overrides the default synthetic relaxation application.
	// When nil, the machine runs workload.RelaxationConfig built from
	// the fields above.
	Workload workload.Workload
	// Trace, when non-nil, receives message send/delivery and
	// transaction completion events.
	Trace *trace.Tracer
	// Capture, when non-nil, records every operation each (node,
	// context) fetches into a replayable reference trace (package
	// replay). The machine binds it during New; call CapturedTrace
	// after the run to finalize. Capturing observes fetches without
	// perturbing them, so a capturing run is behaviorally identical
	// to an uninstrumented one.
	Capture *replay.Capture
	// LocalDelay is the delivery latency, in N-cycles, for messages
	// whose source and destination coincide (they bypass the fabric).
	// Zero takes the netsim default of 1.
	LocalDelay int

	// Watchdog, when enabled, makes Execute abort with a StallReport
	// if the machine stops making forward progress.
	Watchdog Watchdog

	// Checkpoint configures crash-recovery snapshots: periodic .lckp
	// files every Every P-cycles, plus a final snapshot when the run is
	// canceled or a watchdog stall fires. The zero value disables
	// checkpointing and leaves the run loop byte-identical to an
	// unconfigured build.
	Checkpoint CheckpointSpec

	// Kernel selects the execution loop: sim.KernelEvent (the zero
	// value) skips quiescent spans, sim.KernelTick executes every cycle.
	// Both produce bit-identical results; tick mode exists as an escape
	// hatch and differential-testing reference.
	Kernel sim.KernelKind

	// Telemetry, when non-nil, is a registry the machine and all its
	// substrates publish metrics into: counters and gauges over
	// existing state, hop-keyed latency histograms, and per-component
	// cycle attribution. nil (the default) leaves every simulated
	// quantity byte-identical to an uninstrumented machine.
	Telemetry *telemetry.Registry

	// Observer, when non-nil, is invoked with the machine at every
	// run-loop chunk boundary (every ctxPollInterval P-cycles, or the
	// watchdog interval when one is configured). It runs on the
	// goroutine driving Execute, between chunks — never inside a
	// kernel step — so it may freely read machine state: the live
	// observability layer (internal/obs) publishes telemetry exports
	// from here. Observers must only read; a read-only observer leaves
	// the run byte-identical to an unobserved one.
	Observer func(*Machine)
}

// DefaultConfig returns the reference-architecture configuration for a
// given torus, mapping and context count: 11-cycle switches, 2× network
// clock, 4096-line caches with 16-byte lines, full-map directory, and
// the small-grain workload of Section 3.2.
func DefaultConfig(topo *topology.Torus, m *mapping.Mapping, contexts int) Config {
	return Config{
		Topo:         topo,
		Mapping:      m,
		Contexts:     contexts,
		ClockRatio:   2,
		BufferDepth:  8,
		CacheLines:   4096,
		LineSize:     16,
		HWPointers:   0,
		ReadCompute:  20,
		WriteCompute: 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("machine: nil topology")
	}
	if c.Mapping == nil {
		return fmt.Errorf("machine: nil mapping")
	}
	if err := c.Mapping.Validate(); err != nil {
		return err
	}
	if len(c.Mapping.Place) != c.Topo.Nodes() {
		return fmt.Errorf("machine: mapping covers %d threads, machine has %d nodes", len(c.Mapping.Place), c.Topo.Nodes())
	}
	if c.Contexts < 1 {
		return fmt.Errorf("machine: context count %d, must be ≥ 1", c.Contexts)
	}
	if c.ClockRatio < 1 {
		return fmt.Errorf("machine: clock ratio %d, must be ≥ 1 (network at least as fast as processors)", c.ClockRatio)
	}
	if c.Workload == nil && c.Contexts*c.Topo.Nodes() > c.CacheLines {
		return fmt.Errorf("machine: %d state words exceed %d cache lines (workload assumes conflict-free caching)", c.Contexts*c.Topo.Nodes(), c.CacheLines)
	}
	if c.LocalDelay < 0 {
		return fmt.Errorf("machine: negative local delay %d", c.LocalDelay)
	}
	if err := c.Watchdog.validate(); err != nil {
		return err
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	return nil
}

// Machine is one assembled simulation.
type Machine struct {
	cfg    Config
	wl     workload.Workload
	net    *netsim.Network
	proto  *cohsim.Protocol
	procs  []*procsim.Processor
	kernel *sim.Kernel
	pnow   int64
	// pCyclesSince tracks the measurement window origin.
	windowStart int64
	// ksWindow is the kernel accounting at the window origin.
	ksWindow sim.Stats

	// Telemetry state; all nil/zero when cfg.Telemetry is nil.
	msgLat *telemetry.HistogramVec // delivery latency by hops traversed
	txnLat *telemetry.HistogramVec // txn round-trip by requester→home distance
	home   func(addr uint64) int

	// resumePhase is the chunk offset a restored run re-enters the run
	// loop at, so chunk boundaries — and the kernel's Run-call
	// accounting — land on the same cycles as the uninterrupted run.
	// Consumed by the next RunChecked call.
	resumePhase int64
	// lastCkpt is the most recent checkpoint file written; ckptHistory
	// tracks periodic snapshots for Keep-based pruning.
	lastCkpt    string
	ckptHistory []string

	// free holds delivered packets for later sends to reuse. It keeps
	// at most one packet per node: enough for the steady state, while
	// the surplus of a burst such as a cold start goes to the collector
	// instead of being held for the machine's life.
	free []*packet
}

// packet is a fabric message together with its protocol payload. The
// message's Payload points back at the packet, so a send needs one
// object, which delivery recycles.
type packet struct {
	netsim.Message
	msg cohsim.Msg
}

// newPacket returns a packet carrying msg, reusing a delivered one when
// there is one.
func (m *Machine) newPacket(msg cohsim.Msg) *packet {
	var pk *packet
	if n := len(m.free); n > 0 {
		pk = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		pk = new(packet)
	}
	pk.msg = msg
	pk.Payload = pk
	return pk
}

// recycle returns a delivered packet to the free list, cleared so it
// keeps no transaction reachable.
func (m *Machine) recycle(pk *packet) {
	*pk = packet{}
	if len(m.free) < m.cfg.Topo.Nodes() {
		m.free = append(m.free, pk)
	}
}

// transport adapts netsim to the protocol's Transport interface.
type transport struct{ m *Machine }

func (t transport) Send(src, dst, sizeFlits int, msg cohsim.Msg) {
	t.m.cfg.Trace.Emit(trace.Event{
		Cycle: t.m.pnow, Kind: trace.KindMsgSend,
		Node: src, Peer: dst, Addr: msg.Addr, Info: int64(msg.Kind),
	})
	pk := t.m.newPacket(msg)
	pk.Src, pk.Dst, pk.Size = src, dst, sizeFlits
	if err := t.m.net.Send(&pk.Message); err != nil {
		panic(fmt.Sprintf("machine: transport send failed: %v", err))
	}
}

// New builds the machine, its workload, and all substrates.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}

	if cfg.Workload != nil {
		m.wl = cfg.Workload
	} else {
		m.wl = workload.RelaxationConfig{
			Graph:        cfg.Topo,
			Map:          cfg.Mapping,
			Instances:    cfg.Contexts,
			LineSize:     cfg.LineSize,
			ReadCompute:  cfg.ReadCompute,
			WriteCompute: cfg.WriteCompute,
		}
	}
	programs, err := m.wl.Programs()
	if err != nil {
		return nil, err
	}

	net, err := netsim.New(netsim.Config{Topo: cfg.Topo, BufferDepth: cfg.BufferDepth, LocalDelay: cfg.LocalDelay})
	if err != nil {
		return nil, err
	}
	m.net = net

	proto, err := cohsim.New(cohsim.Config{
		Nodes:      cfg.Topo.Nodes(),
		Cache:      cachesim.Config{Lines: cfg.CacheLines, LineSize: cfg.LineSize},
		Home:       m.wl.HomeFunc(),
		HWPointers: cfg.HWPointers,
		OnReady: func(node, thread int, now int64) {
			m.kernel.Touch(1 + node) // processors are kernel sleepers
			m.procs[node].Ready(thread, now)
		},
		OnComplete: func(txn *cohsim.Transaction) {
			m.cfg.Trace.Emit(trace.Event{
				Cycle: txn.Completed, Kind: trace.KindTxnComplete,
				Node: txn.Node, Peer: -1, Addr: txn.Addr,
				Info: txn.Completed - txn.Started,
			})
			if m.txnLat != nil {
				m.txnLat.Observe(m.cfg.Topo.Distance(txn.Node, m.home(txn.Addr)), txn.Completed-txn.Started)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	m.proto = proto
	proto.SetTransport(transport{m})
	net.SetDelivery(func(nowN int64, msg *netsim.Message) {
		pk := msg.Payload.(*packet)
		m.cfg.Trace.Emit(trace.Event{
			Cycle: m.pnow, Kind: trace.KindMsgDeliver,
			Node: msg.Dst, Peer: msg.Src, Addr: pk.msg.Addr, Info: msg.Latency(),
		})
		if m.msgLat != nil {
			m.msgLat.Observe(msg.Hops, msg.Latency())
		}
		// The network holds no reference to a delivered message, and
		// sends made while the protocol handles this one draw other
		// packets, so pk is free once Deliver returns.
		proto.Deliver(msg.Dst, pk.msg, m.pnow)
		m.recycle(pk)
	})

	m.procs = make([]*procsim.Processor, cfg.Topo.Nodes())
	pcfg := procsim.Config{Contexts: cfg.Contexts, SwitchTime: switchTime, HitLatency: hitLatency}
	if cfg.Capture != nil {
		cfg.Capture.Bind(cfg.Topo.Nodes(), cfg.Contexts)
		pcfg.OnOp = cfg.Capture.Record
	}
	for nodeID := range m.procs {
		proc, err := procsim.New(nodeID, pcfg, m.proto, programs[nodeID])
		if err != nil {
			return nil, err
		}
		m.procs[nodeID] = proc
	}
	m.initTelemetry()
	m.buildKernel()
	return m, nil
}

// ctxPollInterval is the granularity, in P-cycles, at which Execute
// polls for context cancellation when the watchdog is disabled. The
// kernel is a straight loop, so chunking it changes nothing but adds a
// poll point every few thousand cycles (microseconds of simulated
// work).
const ctxPollInterval = 4096

// runChecked is the run loop backing Execute: it advances the machine
// by pCycles processor cycles under the configured watchdog — every
// check interval it verifies flit conservation and forward progress,
// returning a *StallReport (wrapping ErrStalled) if the
// machine has livelocked or deadlocked. Canceling ctx stops the run at
// the next poll point with the context's error, which is how the
// experiment engine (and Ctrl-C in the cmds) interrupts in-flight
// simulations.
//
// With checkpointing configured, the loop additionally writes a
// snapshot every Checkpoint.Every P-cycles (on absolute cycle
// boundaries, so an interrupted and a fresh run agree on where
// snapshots land), a final snapshot when ctx is canceled, and an
// emergency snapshot when the watchdog fires. Run-call chunk
// boundaries affect the event kernel's ticked/skipped accounting, so a
// restored run re-aligns its chunks to the interrupted call's phase
// (resumePhase): the sequence of kernel Run calls after the checkpoint
// cycle is identical to the uninterrupted run's, which is what makes
// restored metrics byte-identical. With checkpointing disabled the
// loop is step-for-step identical to a build without it.
func (m *Machine) runChecked(ctx context.Context, pCycles int64) error {
	interval := int64(ctxPollInterval)
	if m.cfg.Watchdog.Enabled() {
		interval = int64(m.cfg.Watchdog.Interval())
	}
	phase := m.resumePhase
	m.resumePhase = 0
	every := m.cfg.Checkpoint.Every
	var nextCkpt int64
	if every > 0 {
		nextCkpt = (m.pnow/every + 1) * every
	}
	for done := int64(0); done < pCycles; {
		if err := ctx.Err(); err != nil {
			if m.cfg.Checkpoint.Dir != "" {
				// Best-effort final snapshot; the context error is
				// what the caller needs to see either way.
				if path, werr := m.writeAuto("ckpt", phase+done); werr == nil {
					m.lastCkpt = path
				}
			}
			return err
		}
		step := interval - (done+phase)%interval
		if rest := pCycles - done; rest < step {
			step = rest
		}
		if every > 0 {
			if toCkpt := nextCkpt - m.pnow; toCkpt < step {
				step = toCkpt
			}
		}
		ticked := m.kernel.Stats().Ticked
		m.advance(step)
		done += step
		if every > 0 && m.pnow == nextCkpt {
			path, err := m.writeAuto("ckpt", phase+done)
			if err != nil {
				return fmt.Errorf("machine: writing checkpoint: %w", err)
			}
			m.lastCkpt = path
			m.prunePeriodic(path)
			nextCkpt += every
		}
		if m.cfg.Watchdog.Enabled() {
			if err := m.checkProgress(m.kernel.Stats().Ticked - ticked); err != nil {
				m.stallCheckpoint(err, phase+done)
				return err
			}
		}
		if m.cfg.Observer != nil {
			m.cfg.Observer(m)
		}
	}
	return nil
}

// checkProgress is the watchdog body, invoked at fixed wall-cycle
// chunk boundaries with the number of cycles the kernel actually
// executed during the chunk. The fabric checks — flit conservation and
// the busy-without-progress bound — are skipped for chunks the event
// kernel skipped through entirely (executed ≤ 1 covers the mandatory
// first cycle of each Run call): skipping proves the fabric was
// drained, so those checks cannot fire, and on heavily-skipping runs
// they would dominate the watchdog's cost. The transaction-age bound
// always runs: a transaction the protocol never completes stays
// outstanding in an otherwise silent — fully skippable — machine, and
// only this check catches it. The executed-cycle count
// differs between kernel modes, but the gated checks pass vacuously
// whenever the gate closes, so stall reports stay identical.
func (m *Machine) checkProgress(executed int64) error {
	stall := int64(m.cfg.Watchdog.StallCycles)
	if executed > 1 || m.net.Busy() {
		if err := m.net.Check(); err != nil {
			return err
		}
		if m.net.Busy() {
			// Network ages are in N-cycles; the bound is given in P-cycles.
			if age := m.net.Now() - m.net.LastProgress(); age >= stall*int64(m.cfg.ClockRatio) {
				return &StallReport{
					Component:  "network",
					Cycle:      m.pnow,
					StalledFor: age / int64(m.cfg.ClockRatio),
					Detail:     fmt.Sprintf("fabric busy with no flit movement for %d N-cycles", age),
					Snapshot:   m.DiagSnapshot(),
				}
			}
		}
	}
	if txn := m.proto.OldestTxn(); txn != nil {
		if age := m.pnow - txn.Started; age >= stall {
			d := m.proto.Directory(txn.Addr)
			return &StallReport{
				Component:  "protocol",
				Cycle:      m.pnow,
				StalledFor: age,
				Detail: fmt.Sprintf("transaction %d (node %d, line %#x, write=%v) outstanding for %d P-cycles; directory: state=%s owner=%d sharers=%v busy=%v queued=%d",
					txn.ID, txn.Node, txn.Addr, txn.Write, age,
					d.State, d.Owner, d.Sharers, d.Busy, d.Queued),
				Snapshot: m.DiagSnapshot(),
			}
		}
	}
	return nil
}

// Now returns the current processor cycle.
func (m *Machine) Now() int64 { return m.pnow }

// ResetStats starts a fresh measurement window (used after warmup).
func (m *Machine) ResetStats() {
	m.net.ResetStats()
	m.proto.ResetStats()
	m.windowStart = m.pnow
	m.ksWindow = m.kernel.Stats()
}

// Protocol exposes the coherence engine for invariant checks.
func (m *Machine) Protocol() *cohsim.Protocol { return m.proto }

// Network exposes the interconnect for detailed statistics.
func (m *Machine) Network() *netsim.Network { return m.net }

// Processor exposes one node's processor statistics.
func (m *Machine) Processor(node int) *procsim.Processor { return m.procs[node] }

// Workload exposes the machine's workload.
func (m *Machine) Workload() workload.Workload { return m.wl }

// Metrics are the paper's measured quantities for one simulation
// window. Message quantities are in network cycles; transaction
// quantities in processor cycles.
type Metrics struct {
	PCycles int64 // measurement window length, P-cycles
	NCycles int64 // same window in N-cycles

	Transactions int64
	Messages     int64 // fabric messages injected

	// tm: average inter-message injection time per node, N-cycles.
	InterMsgTime float64
	// rm = 1/tm: messages per node per N-cycle.
	MsgRate float64
	// Tm: average message latency including source queueing, N-cycles.
	MsgLatency float64
	// B: average message size in flits.
	MsgSize float64
	// d: average hops per fabric message.
	AvgDistance float64
	// g: fabric messages per transaction.
	MsgsPerTxn float64
	// Tt: average transaction latency, P-cycles.
	TxnLatency float64
	// tt: average inter-transaction issue time per processor, P-cycles.
	InterTxnTime float64
	// rt = 1/tt.
	TxnRate float64
	// ChannelUtilization is the mean directional-channel occupancy.
	ChannelUtilization float64
	// SWTraps counts LimitLESS software-extension invocations.
	SWTraps int64

	// Kernel execution accounting for the window — a property of how
	// the simulator ran, not of the modeled machine. CyclesTicked +
	// CyclesSkipped == PCycles; CyclesSkipped is always 0 in tick
	// mode, so these are the only Metrics fields that legitimately
	// differ between the (otherwise bit-identical) kernel modes.
	CyclesTicked  int64
	CyclesSkipped int64
}

// SkipRatio returns the fraction of the window's P-cycles the kernel
// skipped rather than executed, in [0, 1].
func (m Metrics) SkipRatio() float64 {
	return sim.Stats{Ticked: m.CyclesTicked, Skipped: m.CyclesSkipped}.SkipRatio()
}

// Measure returns the metrics accumulated since the last ResetStats.
func (m *Machine) Measure() Metrics {
	ns := m.net.Snapshot()
	ps := m.proto.Snapshot()
	ks := m.kernel.Stats().Sub(m.ksWindow)
	window := m.pnow - m.windowStart
	nodes := float64(m.cfg.Topo.Nodes())
	mt := Metrics{
		PCycles:            window,
		NCycles:            ns.Cycles,
		Transactions:       ps.Transactions,
		Messages:           ns.Injected,
		MsgLatency:         ns.AvgLatency,
		MsgSize:            ns.AvgSize,
		AvgDistance:        ns.AvgHops,
		MsgsPerTxn:         ps.AvgTxnMsgs,
		TxnLatency:         ps.AvgTxnLatency,
		ChannelUtilization: ns.ChannelUtilization,
		SWTraps:            ps.SWTraps,
		CyclesTicked:       ks.Ticked,
		CyclesSkipped:      ks.Skipped,
	}
	if ns.Injected > 0 && ns.Cycles > 0 {
		mt.InterMsgTime = float64(ns.Cycles) * nodes / float64(ns.Injected)
		mt.MsgRate = 1 / mt.InterMsgTime
	}
	if ps.Transactions > 0 && window > 0 {
		mt.InterTxnTime = float64(window) * nodes / float64(ps.Transactions)
		mt.TxnRate = 1 / mt.InterTxnTime
	}
	return mt
}
