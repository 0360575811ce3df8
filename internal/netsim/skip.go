package netsim

import "fmt"

// Skippable reports whether the fabric's per-cycle Step is fully
// predictable right now, so a span of cycles may be applied through
// SkipTo instead: a drained fabric only advances its clock.
//
// Pending local-bypass messages do NOT block skipping: their delivery
// times were fixed when Send accepted them, so the fabric stays
// predictable right up to the earliest due time. NextLocalDue exposes
// that bound; SkipTo enforces it.
func (nw *Network) Skippable() bool {
	return nw.queued == 0 && nw.flitsIn == nw.flitsOut
}

// NextLocalDue returns the earliest delivery time among pending
// local-bypass messages, and whether any are pending. A skippable
// fabric with a pending local delivery may only skip to cycles ≤ that
// bound (the delivering Step itself must execute).
func (nw *Network) NextLocalDue() (int64, bool) {
	if len(nw.local) == 0 {
		return 0, false
	}
	min := nw.local[0].due
	for _, e := range nw.local[1:] {
		if e.due < min {
			min = e.due
		}
	}
	return min, true
}

// SkipTo advances a skippable fabric's clock straight to nowN, which
// is all the skipped Steps would have done. Panics if the fabric is
// not Skippable, time would move backwards, or the span would jump
// over a pending local delivery — all kernel contract violations, not
// runtime conditions.
func (nw *Network) SkipTo(nowN int64) {
	if nowN < nw.now {
		panic(fmt.Sprintf("netsim: SkipTo(%d) behind current cycle %d", nowN, nw.now))
	}
	if !nw.Skippable() {
		panic(fmt.Sprintf("netsim: SkipTo(%d) on a busy or unskippable fabric", nowN))
	}
	for _, e := range nw.local {
		// An entry with due < nowN should have delivered during a
		// skipped cycle: the caller overshot its announced bound. The
		// Step at nowN itself still delivers due == nowN entries.
		if e.due < nowN {
			panic(fmt.Sprintf("netsim: SkipTo(%d) jumps over local delivery due at %d", nowN, e.due))
		}
	}
	nw.now = nowN
}
