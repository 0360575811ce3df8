package procsim

import (
	"fmt"

	"locality/internal/sim"
)

// NextEvent implements sim.Component: the first future cycle whose
// Tick is not fully predictable from the processor's current state.
// The spans in between — a context switch draining, a compute burst or
// hit latency draining, or idling with no runnable context — accrue
// only cycle counters and are applied in bulk by Advance.
//
// A blocked processor reports sim.Never: contexts are only unblocked
// by Ready, which the coherence layer invokes from within its own
// Tick, so the wake cycle is always an executed cycle announced by the
// protocol's event heap, never something the processor must predict.
func (p *Processor) NextEvent() int64 {
	if p.switchLeft > 0 {
		return p.lastTick + int64(p.switchLeft) + 1
	}
	if c := &p.ctxs[p.cur]; c.state == ctxRunning {
		p.mergeBursts(c)
		// remaining may be 0: the very next cycle fetches an op.
		return p.lastTick + int64(c.remaining) + 1
	}
	if _, ok := p.nextReady(); ok {
		return p.lastTick + 1 // dispatch next cycle
	}
	return sim.Never
}

// maxMergeOps bounds how many back-to-back compute operations one
// merge folds into the running burst, so a compute-only program cannot
// trap the lookahead in an unbounded loop.
const maxMergeOps = 64

// mergeBursts is the bulk multi-burst lookahead: while the running
// context's next program operation is another compute burst, fold it
// into the current remaining span so the event kernel advances across
// all of them in one step instead of waking at every burst boundary.
// Folding is exact — a C-cycle burst costs C busy cycles through the
// per-cycle fetch path too (one fetch cycle plus C−1 drain cycles,
// with zero-length bursts costing their one fetch cycle) — so Tick,
// Advance, and all counters are unchanged; only the number of
// executed cycles shrinks. The op ending the merge lands in the
// lookahead slot, where fetch picks it up at the merged span's end. A
// pending (blocked-and-retrying) memory op disables merging: the
// program's next op is not up yet.
//
// Merging is a function of program position only, never of how often
// NextEvent is polled: a non-empty lookahead slot ends the merge even
// when it holds a compute op parked by a previous capped fold. Three
// things rely on this, because each polls NextEvent on a different
// schedule yet must leave the context in bit-identical state: the
// event kernel versus the tick kernel, which polls only for cycle
// attribution; chunked Execute calls, whose Run boundaries add polls;
// and a restored machine, which resumes from the checkpointed state
// without the polling history of the run that wrote it.
func (p *Processor) mergeBursts(c *context) {
	if c.hasPending || c.hasLook {
		return
	}
	for i := 0; i < maxMergeOps; i++ {
		op := p.fetch(c, p.cur)
		if op.Kind != OpCompute {
			c.look, c.hasLook = op, true
			return
		}
		cy := op.Cycles
		if cy < 1 {
			cy = 1 // a zero-length burst still costs its fetch cycle
		}
		c.remaining += cy
	}
	// Cap reached: park the next op — compute or not — so further polls
	// cannot fold deeper.
	c.look, c.hasLook = p.fetch(c, p.cur), true
}

// Advance implements sim.Advancer: applies cycles (lastTick, to] in
// bulk, exactly as per-cycle Ticks would have. The kernel guarantees
// the span ends before this processor's NextEvent, which the contract
// checks below enforce.
func (p *Processor) Advance(to int64) {
	n := to - p.lastTick
	if n <= 0 {
		return
	}
	p.lastTick = to
	switch {
	case p.switchLeft > 0:
		if int64(p.switchLeft) < n {
			panic(fmt.Sprintf("procsim: Advance %d cycles across end of %d-cycle switch", n, p.switchLeft))
		}
		p.switchLeft -= int(n)
		p.switchC.Addn(n)
	case p.ctxs[p.cur].state == ctxRunning:
		if int64(p.ctxs[p.cur].remaining) < n {
			panic(fmt.Sprintf("procsim: Advance %d cycles across end of %d-cycle burst", n, p.ctxs[p.cur].remaining))
		}
		p.ctxs[p.cur].remaining -= int(n)
		p.busy.Addn(n)
	default:
		if idx, ok := p.nextReady(); ok {
			panic(fmt.Sprintf("procsim: Advance %d cycles with context %d ready", n, idx))
		}
		p.idle.Addn(n)
	}
}
