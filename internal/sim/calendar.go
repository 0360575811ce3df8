package sim

import "fmt"

// Sleepers are components the event kernel does not tick on every
// executed cycle. They wait in a calendar — a min-heap keyed by
// (NextEvent, registration index) — and an executed cycle ticks only
// the sleepers due at it, in registration order among the other
// components. A sleeper's skipped cycles, whether quiescent spans or
// executed cycles it was not due at, are applied lazily through its
// Advancer right before it next ticks or when Run returns.
//
// On top of the Component/Advancer contract, a sleeper promises:
//
//   - Its Tick at a cycle before its NextEvent is exactly Advance
//     through that cycle, even when other components act in it.
//   - Its NextEvent does not move under Advance.
//   - Its state changes only inside its own Tick, or in a call made
//     right after Touch on it. Whoever mutates a sleeper from outside
//     calls Touch first.
//   - Nothing reads its state mid-run.
//
// The kernel reads a sleeper's NextEvent only in the sweep after the
// sleeper ticked or was touched, which is where the dense sweep first
// polled it too. A touched sleeper whose slot in the current cycle has
// not been reached ticks at its slot, as it would in the dense loop;
// one touched after its slot is brought through the current cycle.
// The calendar is derived state: it is built at the first Run with
// every sleeper due at the current cycle (ticking a sleeper that is
// not due is always safe), and RunTick and Restore drop it.

// calEntry is one calendar slot: sleeper s (an offset from the first
// sleeper) is scheduled to tick at cycle at.
type calEntry struct {
	at int64
	s  int32
}

func (a calEntry) less(b calEntry) bool {
	return a.at < b.at || (a.at == b.at && a.s < b.s)
}

// calendar holds the sleepers' schedule. An entry (at, s) is live only
// while key[s] == at; entries left stale by rescheduling are dropped
// when they reach the top of the heap.
type calendar struct {
	built bool
	heap  []calEntry
	// key[s] is the cycle sleeper s is scheduled at, Never when it is
	// quiescent or has just ticked and awaits its next reading.
	key []int64
	// last[s] is the last cycle applied to sleeper s, by Tick or
	// Advance.
	last []int64
	// dirty lists sleepers ticked or touched since the last sweep;
	// the sweep re-reads their NextEvent.
	dirty []int32
}

// SetSleepers registers components from..to-1 (registration indices,
// half-open) as sleepers. Call before the first Run; Run allocates the
// calendar lazily, so registering costs nothing until then.
func (k *Kernel) SetSleepers(from, to int) {
	if from < 0 || to < from || to > len(k.comps) {
		panic(fmt.Sprintf("sim: sleeper range [%d, %d) outside %d components", from, to, len(k.comps)))
	}
	k.sleepLo, k.sleepHi = from, to
	k.cal.built = false
}

// Touch tells the kernel that sleeper i is about to be changed from
// outside its own Tick. Call it before the change. If i's slot in the
// cycle being executed has not been reached, or between cycles, i is
// brought through the previous cycle and ticks at its slot; otherwise
// it is brought through the current cycle. Either way its NextEvent is
// re-read at the next sweep. Touch is a no-op for non-sleepers and
// whenever the calendar is not in use (RunTick, or before the first
// Run).
func (k *Kernel) Touch(i int) {
	c := &k.cal
	if !c.built || i < k.sleepLo || i >= k.sleepHi {
		return
	}
	s := int32(i - k.sleepLo)
	if i > k.cur {
		k.catchUp(s, k.now-1)
		c.schedule(s, k.now)
	} else {
		k.catchUp(s, k.now)
	}
	c.dirty = append(c.dirty, s)
}

// catchUp applies sleeper s's lagged cycles through cycle to.
func (k *Kernel) catchUp(s int32, to int64) {
	if c := &k.cal; c.last[s] < to {
		if a := k.advs[k.sleepLo+int(s)]; a != nil {
			a.Advance(to)
		}
		c.last[s] = to
	}
}

// buildCalendar schedules every sleeper at the current cycle.
func (k *Kernel) buildCalendar() {
	c := &k.cal
	n := k.sleepHi - k.sleepLo
	if cap(c.key) < n {
		c.key, c.last, c.heap = make([]int64, n), make([]int64, n), make([]calEntry, 0, n)
	}
	c.key, c.last, c.heap, c.dirty = c.key[:n], c.last[:n], c.heap[:0], c.dirty[:0]
	for s := range c.key {
		c.key[s], c.last[s] = k.now, k.now-1
		// Equal keys in index order already form a heap.
		c.heap = append(c.heap, calEntry{at: k.now, s: int32(s)})
	}
	c.built = true
}

// tickSleepers ticks, in registration order, every sleeper due at now.
func (k *Kernel) tickSleepers(now int64) {
	c := &k.cal
	for {
		e, ok := c.head()
		if !ok || e.at > now {
			return
		}
		c.pop()
		k.cur = k.sleepLo + int(e.s)
		k.catchUp(e.s, now-1)
		c.last[e.s], c.key[e.s] = now, Never
		c.dirty = append(c.dirty, e.s)
		k.comps[k.cur].Tick(now)
	}
}

// settle re-reads the NextEvent of every sleeper ticked or touched
// since the last sweep and reschedules it.
func (k *Kernel) settle() {
	c := &k.cal
	for _, s := range c.dirty {
		c.schedule(s, k.comps[k.sleepLo+int(s)].NextEvent())
	}
	c.dirty = c.dirty[:0]
}

// syncSleepers ends a Run: sleepers ticked or touched in its last
// cycle without a sweep after it are scheduled at the next cycle,
// where they tick and are read in the sweep after it, as in the dense
// loop; and every sleeper is brought through the last completed cycle.
func (k *Kernel) syncSleepers() {
	c := &k.cal
	for _, s := range c.dirty {
		c.schedule(s, k.now)
	}
	c.dirty = c.dirty[:0]
	for s := range c.last {
		k.catchUp(int32(s), k.now-1)
	}
}

// schedule moves sleeper s to cycle at, leaving any older entry stale.
func (c *calendar) schedule(s int32, at int64) {
	if c.key[s] == at {
		return
	}
	c.key[s] = at
	if at == Never {
		return
	}
	if len(c.heap) >= 2*len(c.key) {
		c.compact()
	}
	c.heap = append(c.heap, calEntry{at: at, s: s})
	for i := len(c.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.heap[i].less(c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

// head returns the earliest live entry, dropping stale ones above it.
func (c *calendar) head() (calEntry, bool) {
	for len(c.heap) > 0 {
		if e := c.heap[0]; c.key[e.s] == e.at {
			return e, true
		}
		c.pop()
	}
	return calEntry{}, false
}

// pop removes the top entry.
func (c *calendar) pop() {
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	c.down(0)
}

func (c *calendar) down(i int) {
	h := c.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			l = r
		}
		if !h[l].less(h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// compact rebuilds the heap from the live keys once stale entries
// outnumber the sleepers, bounding its size at twice the sleeper count.
func (c *calendar) compact() {
	c.heap = c.heap[:0]
	for s, at := range c.key {
		if at != Never {
			c.heap = append(c.heap, calEntry{at: at, s: int32(s)})
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
}
