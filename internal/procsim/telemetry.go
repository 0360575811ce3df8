package procsim

import "locality/internal/telemetry"

// PublishTelemetry registers machine-wide processor cycle accounting —
// summed over the given processors — as pull-based gauges. Per-node
// breakdowns stay available through Processor.Snapshot; the registry
// carries the aggregate a dump or a /metrics scrape wants. Safe on a
// nil registry.
func PublishTelemetry(reg *telemetry.Registry, procs []*Processor) {
	if reg == nil {
		return
	}
	sum := func(get func(*Processor) int64) func() float64 {
		return func() float64 {
			var total int64
			for _, p := range procs {
				total += get(p)
			}
			return float64(total)
		}
	}
	reg.GaugeFunc("proc/busy_cycles", sum(func(p *Processor) int64 { return p.busy.Value() }))
	reg.GaugeFunc("proc/switch_cycles", sum(func(p *Processor) int64 { return p.switchC.Value() }))
	reg.GaugeFunc("proc/idle_cycles", sum(func(p *Processor) int64 { return p.idle.Value() }))
	reg.GaugeFunc("proc/accesses", sum(func(p *Processor) int64 { return p.accesses.Value() }))
	reg.GaugeFunc("proc/misses", sum(func(p *Processor) int64 { return p.misses.Value() }))
	reg.GaugeFunc("proc/prefetches", sum(func(p *Processor) int64 { return p.prefetches.Value() }))
	reg.GaugeFunc("proc/write_behinds", sum(func(p *Processor) int64 { return p.writeBehinds.Value() }))
}
