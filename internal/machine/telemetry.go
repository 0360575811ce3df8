package machine

import (
	"fmt"

	"locality/internal/procsim"
	"locality/internal/telemetry"
)

// initTelemetry wires the machine and its substrates into the
// configured registry. Called once from New, after the substrates are
// built and before the kernel is assembled. With cfg.Telemetry nil
// this is a no-op and the machine carries no instrumentation at all —
// the telemetry-off path stays byte-identical to a build without this
// file.
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
	reg.GaugeFunc("attr/unforced", func() float64 { return float64(m.Attribution().Unforced) })
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
	Protocol   int64 // coherence engine's event queue
	Processors int64 // compute-burst and context-switch completions, all nodes
	Network    int64 // fabric busy (traffic in flight)
	Unforced   int64
}

// Total returns the sum of all charges, equal to the kernel's executed
// cycle count.
func (a Attribution) Total() int64 {
	return a.Protocol + a.Processors + a.Network + a.Unforced
}

// String renders the breakdown compactly.
func (a Attribution) String() string {
	return fmt.Sprintf("protocol=%d processors=%d network=%d unforced=%d",
		a.Protocol, a.Processors, a.Network, a.Unforced)
}

// Attribution returns the executed-cycle attribution so far. Zero when
// telemetry is disabled.
func (m *Machine) Attribution() Attribution {
	attr, none := m.kernel.Attribution()
	if attr == nil {
		return Attribution{}
	}
	// Kernel registration order: protoComp, one component per
	// processor, netComp.
	n := len(m.procs)
	a := Attribution{Protocol: attr[0], Network: attr[1+n], Unforced: none}
	for _, v := range attr[1 : 1+n] {
		a.Processors += v
	}
	return a
}
