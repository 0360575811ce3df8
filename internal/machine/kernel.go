package machine

import (
	"fmt"
	"strings"

	"locality/internal/sim"
	"locality/internal/trace"
)

// The machine registers three kinds of components with the sim kernel,
// in the exact order of the historical per-cycle loop — protocol, then
// each processor, then the network at ClockRatio sub-cycles — so an
// executed cycle under either kernel mode is the same code in the same
// order, and results are bit-identical.

// protoComp drives the coherence protocol. Its Tick also pins the
// machine's P-clock, which the transport and delivery closures read
// mid-cycle; during skipped spans nothing reads it, so updating it
// only on executed cycles is exact.
type protoComp struct{ m *Machine }

func (c protoComp) Tick(now int64) {
	c.m.pnow = now
	c.m.proto.Tick(now)
}

func (c protoComp) NextEvent() int64 { return c.m.proto.NextEvent() }

// netComp drives the fabric at ClockRatio network cycles per P-cycle.
// While fabric traffic is in flight it claims the very next P-cycle,
// making the machine unskippable; drained, it reports Never and lets
// SkipTo jump the network clock. A fabric
// whose only pending work is local-bypass deliveries is still
// skippable — their due times were fixed at Send — so netComp
// announces the P-cycle containing the earliest due time instead of
// the very next one, extending quiescence skipping into spans where
// same-node messages are in flight.
type netComp struct{ m *Machine }

func (c netComp) Tick(now int64) {
	for r := 0; r < c.m.cfg.ClockRatio; r++ {
		c.m.net.Step()
	}
}

func (c netComp) NextEvent() int64 {
	ratio := int64(c.m.cfg.ClockRatio)
	if !c.m.net.Skippable() {
		// net.Now() == (last executed P-cycle + 1) · ClockRatio.
		return c.m.net.Now() / ratio
	}
	if due, ok := c.m.net.NextLocalDue(); ok {
		// The P-cycle whose network sub-cycles cover due delivers it.
		return due / ratio
	}
	return sim.Never
}

func (c netComp) Advance(to int64) {
	c.m.net.SkipTo((to + 1) * int64(c.m.cfg.ClockRatio))
}

// buildKernel assembles the sim kernel in historical tick order.
//
// The processors are sleepers: the event kernel ticks only those due
// at an executed cycle, so its per-cycle cost tracks the busy
// processors rather than N. procsim meets the sleeper contract — its
// NextEvent does not move under Advance, and the only outside change,
// Ready, fires from inside Protocol.Tick, where OnReady touches the
// processor first. Each processor keeps its own registration index
// (1+node), so attribution charges and checkpointed pending indices
// are the dense kernel's.
func (m *Machine) buildKernel() {
	comps := make([]sim.Component, 0, len(m.procs)+2)
	comps = append(comps, protoComp{m})
	for _, p := range m.procs {
		comps = append(comps, p)
	}
	comps = append(comps, netComp{m})
	m.kernel = sim.New(comps...)
	m.kernel.SetSleepers(1, 1+len(m.procs))
	if m.cfg.Telemetry != nil {
		m.kernel.EnableAttribution()
	}
	if m.cfg.Trace.Enabled() {
		m.kernel.SetOnSkip(func(from, to int64) {
			m.cfg.Trace.Emit(trace.Event{
				Cycle: from, Kind: trace.KindKernelSkip,
				Node: -1, Peer: -1, Info: to - from,
			})
		})
	}
}

// advance moves the machine forward pCycles P-cycles under the
// configured kernel mode.
func (m *Machine) advance(pCycles int64) {
	if m.cfg.Kernel == sim.KernelTick {
		m.kernel.RunTick(pCycles)
	} else {
		m.kernel.Run(pCycles)
	}
	m.pnow = m.kernel.Now()
}

// KernelStats returns the kernel's cumulative execution accounting
// (cycles executed vs. skipped since construction).
func (m *Machine) KernelStats() sim.Stats { return m.kernel.Stats() }

// DiagSnapshot renders a machine-wide diagnostic: the kernel's
// execution accounting followed by the fabric occupancy dump, and —
// when telemetry is enabled — the cycle-attribution breakdown and the
// full registry dump. Stall reports embed it so a watchdog abort shows
// how the machine was being driven as well as where traffic is stuck.
func (m *Machine) DiagSnapshot() string {
	ks := m.kernel.Stats()
	s := fmt.Sprintf("kernel %s @ P-cycle %d: %d cycles executed, %d skipped (%.1f%% skip ratio)\n%s",
		m.cfg.Kernel, m.pnow, ks.Ticked, ks.Skipped, 100*ks.SkipRatio(), m.net.DiagSnapshot())
	if m.cfg.Telemetry != nil {
		var b strings.Builder
		b.WriteString(s)
		fmt.Fprintf(&b, "\ncycle attribution: %s\ntelemetry registry:\n", m.Attribution())
		if err := m.cfg.Telemetry.Dump(&b); err != nil {
			fmt.Fprintf(&b, "(registry dump failed: %v)\n", err)
		}
		return b.String()
	}
	return s
}
