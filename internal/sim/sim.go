// Package sim is the discrete-event simulation kernel shared by the
// full-system simulator's layers. A machine is an ordered list of
// Components, each of which can execute one cycle of work (Tick) and
// report the next cycle at which it has anything to do (NextEvent).
// The kernel runs in one of two modes with bit-identical results:
//
//   - Tick mode (RunTick) executes every cycle, calling Tick on every
//     component in registration order — the naive reference loop.
//   - Event mode (Run) executes only the cycles some component is due
//     at, advancing the clock directly to the global minimum NextEvent
//     and skipping the quiescent cycles in between. Components that
//     accrue per-cycle state even while quiescent (cycle counters,
//     stat accumulators, secondary clocks) implement Advancer to apply
//     the skipped span in bulk. An executed cycle ticks every ordinary
//     component but only the sleepers (SetSleepers) that are due at
//     it; a sleeper's other cycles are applied through its Advancer
//     when it next ticks or when Run returns (calendar.go).
//
// Equivalence rests on one contract: a component's NextEvent must be a
// lower bound on the first future cycle whose Tick is not fully
// predictable from its current state, and its Advance must reproduce
// exactly the state those predictable Ticks would have produced. A
// component may always answer conservatively (last cycle + 1); Never
// means it cannot act again until some other component's activity
// reaches it within an executed cycle.
package sim

import "math"

// Never is the NextEvent value of a quiescent component: no future
// cycle at which it needs to run on its own.
const Never int64 = math.MaxInt64

// Component is one simulation layer driven by the kernel.
type Component interface {
	// Tick executes the component's work for cycle now. The kernel
	// calls Tick on every component, in registration order, for every
	// cycle it executes (on sleepers, only for the cycles they are due
	// at); now is strictly increasing across calls but not necessarily
	// consecutive (skipped spans are applied through Advance, never
	// through Tick).
	Tick(now int64)
	// NextEvent returns the earliest future cycle at which the
	// component must be ticked, or Never when it is quiescent. The
	// value must be greater than the last executed cycle. Answering
	// earlier than necessary is always safe; answering later than the
	// component's true next event breaks bit-identity.
	NextEvent() int64
}

// Advancer is implemented by components whose quiescent cycles still
// accrue state — cycle counters draining, idle-time accounting, a
// faster secondary clock. Advance(to) applies, in bulk, exactly what
// per-cycle Ticks over (lastExecuted, to] would have done, given that
// the kernel has proven every cycle in that span quiescent (no
// component's NextEvent falls inside it; for a sleeper, no NextEvent
// of its own).
type Advancer interface {
	Advance(to int64)
}

// Stats is the kernel's execution accounting.
type Stats struct {
	// Ticked counts cycles executed component by component.
	Ticked int64
	// Skipped counts cycles advanced over in bulk.
	Skipped int64
}

// Cycles returns the total simulated cycles, ticked plus skipped.
func (s Stats) Cycles() int64 { return s.Ticked + s.Skipped }

// SkipRatio returns the fraction of simulated cycles that were
// skipped, in [0, 1].
func (s Stats) SkipRatio() float64 {
	if total := s.Ticked + s.Skipped; total > 0 {
		return float64(s.Skipped) / float64(total)
	}
	return 0
}

// Sub returns the stats accumulated since an earlier snapshot.
func (s Stats) Sub(since Stats) Stats {
	return Stats{Ticked: s.Ticked - since.Ticked, Skipped: s.Skipped - since.Skipped}
}

// Kernel drives an ordered, fixed set of components. The zero value is
// not usable; construct with New.
type Kernel struct {
	comps []Component
	// advs[i] is comps[i]'s Advancer, or nil: resolved once at
	// construction so the skip path does no type assertions.
	advs   []Advancer
	now    int64
	stats  Stats
	onSkip func(from, to int64)
	// attr, when non-nil, charges each executed cycle to the component
	// whose NextEvent forced it; attrNone counts executed cycles no
	// component forced (run-loop boundaries and immediate re-ticks of
	// quiescent machines). pending carries the charge decided by the
	// last sweep into the next tick, across Run-call boundaries.
	attr     []int64
	attrNone int64
	pending  int
	// Components sleepLo..sleepHi-1 are sleepers; cal schedules them
	// in event mode. cur is the registration index of the component
	// being ticked, -1 between cycles.
	sleepLo, sleepHi int
	cal              calendar
	cur              int
}

// New builds a kernel over the given components, which are ticked in
// argument order on every executed cycle. Time starts at cycle 0.
func New(comps ...Component) *Kernel {
	k := &Kernel{comps: comps, advs: make([]Advancer, len(comps)), cur: -1}
	for i, c := range comps {
		if a, ok := c.(Advancer); ok {
			k.advs[i] = a
		}
	}
	return k
}

// SetOnSkip installs an observer invoked once per skip with the
// half-open skipped span [from, to): cycles from..to-1 were advanced
// over in bulk and to is the next executed cycle (or the end of the
// run). Used for skip tracing; nil disables.
func (k *Kernel) SetOnSkip(fn func(from, to int64)) { k.onSkip = fn }

// Now returns the current cycle: the next cycle to be executed.
func (k *Kernel) Now() int64 { return k.now }

// Stats returns cumulative execution accounting.
func (k *Kernel) Stats() Stats { return k.stats }

// EnableAttribution turns on per-component cycle attribution: every
// executed cycle is charged either to the component whose NextEvent
// forced it, or to the "unforced" pool when no component announced the
// cycle (run-call boundaries, clamped skips). Attribution works
// identically under Run and RunTick — forced charges depend only on
// the simulated state trajectory, which is bit-identical between the
// two — at the cost of a NextEvent sweep after every executed cycle
// in tick mode. Call before the first Run/RunTick.
func (k *Kernel) EnableAttribution() {
	k.attr = make([]int64, len(k.comps))
	k.pending = -1
}

// Attribution returns a copy of the per-component executed-cycle
// charges (indexed by registration order) and the unforced-cycle
// count. The charges plus the unforced count sum exactly to
// Stats().Ticked. Returns nil when attribution is disabled.
func (k *Kernel) Attribution() ([]int64, int64) {
	if k.attr == nil {
		return nil, 0
	}
	out := make([]int64, len(k.attr))
	copy(out, k.attr)
	return out, k.attrNone
}

// tick executes one cycle: every component, or with the calendar in
// use, every non-sleeper and the due sleepers, in registration order.
func (k *Kernel) tick() {
	now := k.now
	lo, hi := k.sleeperSpan()
	for i := 0; i < lo; i++ {
		k.cur = i
		k.comps[i].Tick(now)
	}
	if lo < hi {
		k.tickSleepers(now)
	}
	for i := hi; i < len(k.comps); i++ {
		k.cur = i
		k.comps[i].Tick(now)
	}
	k.cur = -1
	k.stats.Ticked++
	k.now = now + 1
	if k.attr != nil {
		if k.pending >= 0 {
			k.attr[k.pending]++
		} else {
			k.attrNone++
		}
		k.pending = -1
	}
}

// sweep returns the global minimum NextEvent across components and the
// registration index of the component announcing it (-1 when every
// component is quiescent). Ties go to the earliest-registered
// component. NextEvent implementations are side-effect free, so
// sweeping is observationally neutral. With the calendar in use the
// sleepers are represented by the calendar's head, after the ones
// ticked or touched since the last sweep are re-read.
func (k *Kernel) sweep() (int64, int) {
	lo, hi := k.sleeperSpan()
	next, arg := Never, -1
	for i := 0; i < lo; i++ {
		if ne := k.comps[i].NextEvent(); ne < next {
			next, arg = ne, i
		}
	}
	if lo < hi {
		k.settle()
		if e, ok := k.cal.head(); ok && e.at < next {
			next, arg = e.at, lo+int(e.s)
		}
	}
	for i := hi; i < len(k.comps); i++ {
		if ne := k.comps[i].NextEvent(); ne < next {
			next, arg = ne, i
		}
	}
	return next, arg
}

// sleeperSpan returns the registration range the calendar covers, or
// an empty range at the end when the calendar is not in use.
func (k *Kernel) sleeperSpan() (lo, hi int) {
	if k.cal.built {
		return k.sleepLo, k.sleepHi
	}
	return len(k.comps), len(k.comps)
}

// RunTick advances the kernel by cycles in the naive per-cycle mode:
// every cycle is executed on every component, sleepers included, and
// nothing is skipped. This is the reference semantics event mode must
// reproduce bit for bit.
func (k *Kernel) RunTick(cycles int64) {
	k.cal.built = false // Run left every sleeper current; tick them all
	for end := k.now + cycles; k.now < end; {
		k.tick()
		if k.attr != nil {
			// Attribution needs to know, for every cycle, whether some
			// component announced it; in tick mode that means sweeping
			// after each executed cycle (the price of attribution on
			// the reference loop — event mode sweeps anyway).
			if next, arg := k.sweep(); next == k.now {
				k.pending = arg
			}
		}
	}
}

// Run advances the kernel by cycles in event mode: after each executed
// cycle it collects every component's NextEvent and, when the global
// minimum lies beyond the next cycle, advances the clock straight to
// it (bounded by the run's end), applying the skipped span through
// each component's Advancer.
//
// The first cycle of every Run call is always executed, even if
// quiescent — executing a quiescent cycle is a no-op by the Component
// contract, so this is safe and keeps the loop free of stale
// cross-call event state.
//
// Sleepers tick only at the cycles they are due at; Run brings every
// sleeper through the last completed cycle before it returns.
func (k *Kernel) Run(cycles int64) {
	if k.sleepLo < k.sleepHi && !k.cal.built {
		k.buildCalendar()
	}
	end := k.now + cycles
	for k.now < end {
		k.tick()
		if k.now >= end {
			if k.attr != nil {
				// The cycle at end executes as the first tick of the
				// next Run call; decide its charge now so chunked runs
				// attribute identically to one long run.
				if next, arg := k.sweep(); next == k.now {
					k.pending = arg
				}
			}
			break
		}
		next, arg := k.sweep()
		if next <= k.now {
			k.pending = arg
			continue // something is due immediately: no skip
		}
		if next > end {
			next = end
			arg = -1 // clamped: nothing forced the cycle at end
		}
		// Cycles k.now .. next-1 are quiescent: apply them in bulk
		// (sleepers catch up when they next tick or when Run returns).
		lo, hi := k.sleeperSpan()
		for _, a := range k.advs[:lo] {
			if a != nil {
				a.Advance(next - 1)
			}
		}
		for _, a := range k.advs[hi:] {
			if a != nil {
				a.Advance(next - 1)
			}
		}
		if k.onSkip != nil {
			k.onSkip(k.now, next)
		}
		k.stats.Skipped += next - k.now
		k.now = next
		k.pending = arg
	}
	if k.cal.built {
		k.syncSleepers()
	}
}
