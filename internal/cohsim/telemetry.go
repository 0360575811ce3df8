package cohsim

import "locality/internal/telemetry"

// PendingEvents returns the number of entries in the protocol's event
// queue: deliveries and controller occupancy releases not yet due.
func (p *Protocol) PendingEvents() int { return p.events.len() }

// OutstandingTxns returns the number of coherence transactions
// currently in flight across all nodes.
func (p *Protocol) OutstandingTxns() int {
	n := 0
	for i := range p.nodes {
		n += len(p.nodes[i].mshr)
	}
	return n
}

// PublishTelemetry registers the protocol's counters as pull-based
// gauges: zero hot-path cost, values read at sample time. Safe on a
// nil registry.
func (p *Protocol) PublishTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("proto/transactions", func() float64 { return float64(p.txnCount.Value()) })
	reg.GaugeFunc("proto/fabric_messages", func() float64 { return float64(p.netMsgs.Value()) })
	reg.GaugeFunc("proto/read_misses", func() float64 { return float64(p.readMiss.Value()) })
	reg.GaugeFunc("proto/write_misses", func() float64 { return float64(p.writeMiss.Value()) })
	reg.GaugeFunc("proto/sw_traps", func() float64 { return float64(p.swTraps.Value()) })
	reg.GaugeFunc("proto/pending_events", func() float64 { return float64(p.PendingEvents()) })
	reg.GaugeFunc("proto/outstanding_txns", func() float64 { return float64(p.OutstandingTxns()) })
}
