// Package trace provides lightweight structured event tracing for the
// simulator: a fixed-capacity ring buffer of typed events with
// per-kind counters and text export. Tracing is designed
// to be cheap enough to leave compiled in: a disabled Tracer is a
// single branch per event.
package trace

import (
	"fmt"
	"io"
)

// Kind classifies events.
type Kind uint8

const (
	// KindMsgSend is a protocol message handed to the network.
	KindMsgSend Kind = iota
	// KindMsgDeliver is a message arriving at its destination.
	KindMsgDeliver
	// KindTxnComplete is a coherence transaction completing.
	KindTxnComplete
	// KindKernelSkip is a quiescent span the event kernel advanced
	// over in bulk: Cycle is the first skipped cycle, Info the span
	// length, Node/Peer are -1 (machine-wide).
	KindKernelSkip
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{"msg-send", "msg-deliver", "txn-complete", "kernel-skip"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one traced occurrence. The integer fields are
// interpretation-dependent per kind (documented on the Emit helpers).
type Event struct {
	Cycle int64
	Kind  Kind
	Node  int
	Peer  int
	Addr  uint64
	Info  int64
}

// String renders one event compactly.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] %-12s node=%-3d peer=%-3d addr=%#x info=%d",
		e.Cycle, e.Kind, e.Node, e.Peer, e.Addr, e.Info)
}

// Tracer collects events into a ring buffer. The zero value is a
// disabled tracer that drops everything; use New for an enabled one.
type Tracer struct {
	enabled  bool
	buf      []Event
	next     int
	wrapped  bool
	counts   [numKinds]int64
	capacity int
}

// New returns a tracer holding the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity < 1 {
		panic("trace: capacity must be positive")
	}
	return &Tracer{enabled: true, buf: make([]Event, 0, capacity), capacity: capacity}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Emit records one event. Safe to call on a nil or zero Tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil || !t.enabled {
		return
	}
	t.counts[e.Kind]++
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, e)
		// len%capacity is the next write slot and already wraps to 0
		// when the buffer just filled.
		t.next = len(t.buf) % t.capacity
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % t.capacity
	t.wrapped = true
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]Event, 0, t.capacity)
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Count returns how many events of kind k were emitted, including
// those the ring has since overwritten.
func (t *Tracer) Count(k Kind) int64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// Dump writes the retained events as text, one per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Filter returns the retained events matching the predicate.
func (t *Tracer) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range t.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
