package cohsim

import (
	"cmp"
	"slices"

	"locality/internal/sim"
)

// event is one scheduled protocol action with its due cycle and
// scheduling sequence number.
type event struct {
	due, seq int64
	act      action
}

// eventKey orders one pending action: by due cycle, then by the
// sequence number schedule gave it. Sequence numbers are unique, so the
// order is total and does not depend on the heap's shape. slot indexes
// the action in the queue's slab. A key holds no pointers, so the heap
// moves keys without write barriers and the collector never scans it.
type eventKey struct {
	due, seq int64
	slot     int32
}

func (a eventKey) less(b eventKey) bool {
	return a.due < b.due || a.due == b.due && a.seq < b.seq
}

// eventQueue holds the protocol's pending events: a binary min-heap of
// keys over a slab of actions whose slots are recycled through a free
// list. Once the slab has grown to the peak number of pending events,
// scheduling and firing allocate nothing.
type eventQueue struct {
	keys []eventKey
	acts []action
	free []int32
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return len(q.keys) }

// due returns the earliest pending due cycle, or sim.Never when the
// queue is empty.
func (q *eventQueue) due() int64 {
	if len(q.keys) == 0 {
		return sim.Never
	}
	return q.keys[0].due
}

// push schedules a at (due, seq).
func (q *eventQueue) push(due, seq int64, a action) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.acts[slot] = a
	} else {
		slot = int32(len(q.acts))
		q.acts = append(q.acts, a)
	}
	q.keys = append(q.keys, eventKey{due: due, seq: seq, slot: slot})
	q.up(len(q.keys) - 1)
}

// pop removes the earliest event and returns its action. The vacated
// slot is cleared, so a fired action keeps no transaction reachable.
func (q *eventQueue) pop() action {
	top := q.keys[0]
	last := len(q.keys) - 1
	q.keys[0] = q.keys[last]
	q.keys = q.keys[:last]
	if last > 0 {
		q.down(0)
	}
	a := q.acts[top.slot]
	q.acts[top.slot] = action{}
	q.free = append(q.free, top.slot)
	return a
}

// events returns every pending event in ascending (due, seq) order.
func (q *eventQueue) events() []event {
	out := make([]event, len(q.keys))
	for i, k := range q.keys {
		out[i] = event{due: k.due, seq: k.seq, act: q.acts[k.slot]}
	}
	slices.SortFunc(out, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.due, b.due), cmp.Compare(a.seq, b.seq))
	})
	return out
}

// reset replaces the queue's contents with events, which must be in
// ascending (due, seq) order: a sorted array is already a valid heap.
func (q *eventQueue) reset(events []event) {
	q.keys = make([]eventKey, len(events))
	q.acts = make([]action, len(events))
	q.free = nil
	for i, e := range events {
		q.keys[i] = eventKey{due: e.due, seq: e.seq, slot: int32(i)}
		q.acts[i] = e.act
	}
}

func (q *eventQueue) up(i int) {
	k := q.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(q.keys[parent]) {
			break
		}
		q.keys[i] = q.keys[parent]
		i = parent
	}
	q.keys[i] = k
}

func (q *eventQueue) down(i int) {
	n := len(q.keys)
	k := q.keys[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.keys[r].less(q.keys[child]) {
			child = r
		}
		if !q.keys[child].less(k) {
			break
		}
		q.keys[i] = q.keys[child]
		i = child
	}
	q.keys[i] = k
}
