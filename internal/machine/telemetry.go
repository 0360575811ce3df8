package machine

import (
	"fmt"

	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/telemetry"
)

// initTelemetry wires the machine and its substrates into the
// configured registry. Called once from New, after the substrates are
// built and before the kernel is assembled (the sampler, if enabled,
// is a kernel component). With cfg.Telemetry nil this is a no-op and
// the machine carries no instrumentation at all — the telemetry-off
// path stays byte-identical to a build without this file.
func (m *Machine) initTelemetry() {
	reg := m.cfg.Telemetry
	if reg == nil {
		return
	}
	// Measured Th(d): message delivery latency keyed by hops actually
	// traversed (N-cycles), and transaction round-trip latency keyed by
	// requester→home distance (P-cycles). One histogram per distance up
	// to the torus diameter; the vec clamps anything beyond.
	diam := m.cfg.Topo.Diameter()
	m.msgLat = reg.HistogramVec("net/msg_latency_by_hops", diam+1, 64, 8)
	m.txnLat = reg.HistogramVec("proto/txn_latency_by_home_dist", diam+1, 64, 16)
	m.home = m.wl.HomeFunc()

	m.net.PublishTelemetry(reg)
	m.proto.PublishTelemetry(reg)
	procsim.PublishTelemetry(reg, m.procs)

	reg.GaugeFunc("machine/pcycle", func() float64 { return float64(m.pnow) })
	// m.kernel is assigned later in New (buildKernel); gauges evaluate
	// lazily, long after construction completes.
	reg.GaugeFunc("kernel/cycles_ticked", func() float64 { return float64(m.kernel.Stats().Ticked) })
	reg.GaugeFunc("kernel/cycles_skipped", func() float64 { return float64(m.kernel.Stats().Skipped) })
	reg.GaugeFunc("kernel/skip_ratio", func() float64 { return m.kernel.Stats().SkipRatio() })
	reg.GaugeFunc("attr/protocol", func() float64 { return float64(m.Attribution().Protocol) })
	reg.GaugeFunc("attr/processors", func() float64 { return float64(m.Attribution().Processors) })
	reg.GaugeFunc("attr/network", func() float64 { return float64(m.Attribution().Network) })
	reg.GaugeFunc("attr/sampler", func() float64 { return float64(m.Attribution().Sampler) })
	reg.GaugeFunc("attr/unforced", func() float64 { return float64(m.Attribution().Unforced) })

	if m.cfg.SliceEvery > 0 {
		// The delta origin is rebased from New once the kernel exists.
		m.slicer = &slicer{m: m, every: m.cfg.SliceEvery, next: m.cfg.SliceEvery}
	}
}

// Telemetry returns the machine's registry (nil when telemetry is
// disabled).
func (m *Machine) Telemetry() *telemetry.Registry { return m.cfg.Telemetry }

// Attribution is the per-component breakdown of executed kernel
// cycles: each executed cycle is charged to the component whose
// NextEvent forced it. Unforced counts cycles no component announced —
// run-loop boundary cycles and clamped skips. The fields sum exactly
// to the kernel's Ticked count. Only populated when telemetry is
// enabled (attribution costs a NextEvent sweep per executed cycle in
// tick mode).
type Attribution struct {
	Protocol   int64 // coherence engine's event heap
	Processors int64 // compute-burst and context-switch completions, all nodes
	Network    int64 // fabric busy (traffic in flight or fault accounting)
	Sampler    int64 // telemetry slice boundaries
	Unforced   int64
}

// Total returns the sum of all charges, equal to the kernel's executed
// cycle count.
func (a Attribution) Total() int64 {
	return a.Protocol + a.Processors + a.Network + a.Sampler + a.Unforced
}

// String renders the breakdown compactly.
func (a Attribution) String() string {
	return fmt.Sprintf("protocol=%d processors=%d network=%d sampler=%d unforced=%d",
		a.Protocol, a.Processors, a.Network, a.Sampler, a.Unforced)
}

// Attribution returns the executed-cycle attribution so far. Zero when
// telemetry is disabled.
func (m *Machine) Attribution() Attribution {
	attr, none := m.kernel.Attribution()
	if attr == nil {
		return Attribution{}
	}
	// Kernel registration order: protoComp, one component per
	// processor, netComp, then the sampler when slicing is on.
	n := len(m.procs)
	a := Attribution{Protocol: attr[0], Network: attr[1+n], Unforced: none}
	for _, v := range attr[1 : 1+n] {
		a.Processors += v
	}
	if len(attr) > 2+n {
		a.Sampler = attr[2+n]
	}
	return a
}

// sliceBase is the cumulative-counter snapshot a slice's deltas are
// computed against.
type sliceBase struct {
	cycle     int64
	busy      int64
	ticked    int64
	skipped   int64
	injected  int64
	delivered int64
	dropped   int64
	downCyc   int64
}

// slicer is a kernel component that emits one interval sample every
// `every` executed P-cycles. Its NextEvent pins the next slice
// boundary so the event kernel cannot skip over it; between
// boundaries its Tick is a single compare. It accrues nothing during
// quiescent spans, so it needs no Advancer.
type slicer struct {
	m      *Machine
	every  int64
	next   int64
	prev   sliceBase
	fields []telemetry.Value // scratch, reused every emit
}

func (s *slicer) Tick(now int64) {
	if now < s.next {
		return
	}
	// Ticking last in registration order, the sampler sees cycle now
	// fully executed: now+1 cycles are complete.
	s.emit(now + 1)
	s.next = now + s.every
}

func (s *slicer) NextEvent() int64 { return s.next }

// rebase re-snapshots the delta origin; called at construction and
// whenever ResetStats zeroes the substrate counters underneath us.
func (s *slicer) rebase() { s.prev = s.m.baseNow() }

// baseNow reads the cumulative counters a slice differences. The
// sampler runs inside the kernel's cycle, where processors not due at
// it still lag, so it syncs them before reading their busy counters.
func (m *Machine) baseNow() sliceBase {
	m.kernel.Sync()
	ns := m.net.Snapshot()
	ps := m.proto.Snapshot()
	ks := m.kernel.Stats()
	b := sliceBase{
		cycle:     m.pnow,
		ticked:    ks.Ticked,
		skipped:   ks.Skipped,
		injected:  ns.Injected,
		delivered: ns.Delivered,
		dropped:   ps.Dropped,
	}
	for _, p := range m.procs {
		b.busy += p.Snapshot().Busy
	}
	if m.linkFaults != nil {
		b.downCyc = m.linkFaults.DownCycles()
	}
	return b
}

// emit writes one sample covering cycles [prev.cycle, through), where
// both bounds count completed cycles. The row is labeled with the last
// cycle it covers.
func (s *slicer) emit(through int64) {
	m := s.m
	cur := m.baseNow()
	cur.cycle = through
	elapsed := cur.cycle - s.prev.cycle
	util := 0.0
	if elapsed > 0 {
		util = float64(cur.busy-s.prev.busy) / (float64(elapsed) * float64(m.cfg.Topo.Nodes()))
	}
	skip := sim.Stats{
		Ticked:  cur.ticked - s.prev.ticked,
		Skipped: cur.skipped - s.prev.skipped,
	}.SkipRatio()
	s.fields = s.fields[:0]
	s.fields = append(s.fields,
		telemetry.Value{Name: "utilization", Value: util},
		telemetry.Value{Name: "skip_ratio", Value: skip},
		telemetry.Value{Name: "msgs_injected", Value: float64(cur.injected - s.prev.injected)},
		telemetry.Value{Name: "msgs_delivered", Value: float64(cur.delivered - s.prev.delivered)},
		telemetry.Value{Name: "queued_messages", Value: float64(m.net.QueuedMessages())},
		telemetry.Value{Name: "in_flight_flits", Value: float64(m.net.InFlightFlits())},
		telemetry.Value{Name: "pending_events", Value: float64(m.proto.PendingEvents())},
		telemetry.Value{Name: "outstanding_txns", Value: float64(m.proto.OutstandingTxns())},
		telemetry.Value{Name: "msgs_dropped", Value: float64(cur.dropped - s.prev.dropped)},
		telemetry.Value{Name: "link_down_cycles", Value: float64(cur.downCyc - s.prev.downCyc)},
	)
	m.cfg.SliceWriter.Write(through-1, s.fields)
	s.prev = cur
}

// FlushSlices emits a final partial slice covering any cycles since
// the last boundary. No-op when slicing is off or nothing has
// elapsed. Call between runs (m.pnow then counts completed cycles),
// not from inside the kernel.
func (m *Machine) FlushSlices() {
	if m.slicer == nil || m.pnow <= m.slicer.prev.cycle {
		return
	}
	m.slicer.emit(m.pnow)
	m.slicer.next = m.pnow - 1 + m.slicer.every
}
