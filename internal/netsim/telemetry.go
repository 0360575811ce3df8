package netsim

import "locality/internal/telemetry"

// QueuedMessages returns the number of messages waiting in injection
// queues (partially injected messages included). O(1).
func (nw *Network) QueuedMessages() int { return nw.queued }

// InFlightFlits counts flits currently buffered anywhere in the fabric
// (injection buffers included; queued-but-uninjected messages are
// not). O(active switches).
func (nw *Network) InFlightFlits() int { return nw.inFlightFlits() }

// PublishTelemetry registers the fabric's counters and occupancy as
// pull-based gauges. Everything published here is read from existing
// state at sample time; the fabric's hot path is untouched. Safe on a
// nil registry.
func (nw *Network) PublishTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("net/injected", func() float64 { return float64(nw.injected.Value()) })
	reg.GaugeFunc("net/delivered", func() float64 { return float64(nw.deliveredCount.Value()) })
	reg.GaugeFunc("net/flit_hops", func() float64 { return float64(nw.flitHops.Value()) })
	reg.GaugeFunc("net/queued_messages", func() float64 { return float64(nw.QueuedMessages()) })
	reg.GaugeFunc("net/in_flight_flits", func() float64 { return float64(nw.InFlightFlits()) })
	reg.GaugeFunc("net/active_routers", func() float64 { return float64(nw.ActiveRouters()) })
	reg.GaugeFunc("net/latency_mean", func() float64 { return nw.latency.Mean() })
	reg.GaugeFunc("net/net_latency_mean", func() float64 { return nw.netLatency.Mean() })
	reg.GaugeFunc("net/hops_mean", func() float64 { return nw.hops.Mean() })
}
