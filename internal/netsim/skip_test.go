package netsim

import (
	"testing"

	"locality/internal/topology"
)

func TestSkippableGating(t *testing.T) {
	// Drained: skippable.
	nw := newNet(t, 4, 2, 4)
	if !nw.Skippable() {
		t.Error("drained fabric should be skippable")
	}
	// Traffic in flight: not skippable.
	if err := nw.Send(&Message{Src: 0, Dst: 3, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if nw.Skippable() {
		t.Error("fabric with queued traffic must not be skippable")
	}
	for i := 0; i < 200 && nw.Busy(); i++ {
		nw.Step()
	}
	if nw.Busy() {
		t.Fatal("message did not drain")
	}
	if !nw.Skippable() {
		t.Error("fabric should be skippable again after draining")
	}
}

// TestSkippableWithLocalPending covers the lazy-drain rule for
// local-bypass messages: their delivery times are fixed at Send, so a
// fabric whose only pending work is local deliveries stays skippable
// up to (but not past) the earliest due time, while Quiesced — the
// watchdog's "no work anywhere" predicate — still reports them.
func TestSkippableWithLocalPending(t *testing.T) {
	nw, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt int64 = -1
	nw.SetDelivery(func(now int64, m *Message) { deliveredAt = now })
	if err := nw.Send(&Message{Src: 5, Dst: 5, Size: 3}); err != nil {
		t.Fatal(err)
	}
	if nw.Quiesced() {
		t.Error("pending local delivery should keep the fabric un-quiesced")
	}
	if !nw.Skippable() {
		t.Error("pending local delivery must not block skipping (its due time is known)")
	}
	due, ok := nw.NextLocalDue()
	if !ok || due != 10 {
		t.Fatalf("NextLocalDue = %d, %v; want 10, true", due, ok)
	}
	// Skip right up to the due cycle; the Step at the due cycle
	// delivers, exactly as per-cycle stepping would have.
	nw.SkipTo(due)
	if deliveredAt != -1 {
		t.Error("skip itself must not deliver")
	}
	nw.Step()
	if deliveredAt != 10 {
		t.Errorf("delivered at %d, want 10", deliveredAt)
	}
	if _, ok := nw.NextLocalDue(); ok {
		t.Error("NextLocalDue still reports a pending entry after delivery")
	}
	if !nw.Quiesced() {
		t.Error("fabric should quiesce after the local delivery")
	}

	// Matching per-cycle reference: same due, same delivery cycle.
	ref, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	var refAt int64 = -1
	ref.SetDelivery(func(now int64, m *Message) { refAt = now })
	if err := ref.Send(&Message{Src: 5, Dst: 5, Size: 3}); err != nil {
		t.Fatal(err)
	}
	for ref.Busy() {
		ref.Step()
	}
	if refAt != deliveredAt {
		t.Errorf("stepped delivery at %d, skipped at %d", refAt, deliveredAt)
	}
}

// TestSkipToPanicsPastLocalDue pins the contract: a skip that jumps
// over a known local delivery time is a kernel bug, not a silent
// late delivery.
func TestSkipToPanicsPastLocalDue(t *testing.T) {
	nw, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(&Message{Src: 2, Dst: 2, Size: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SkipTo past a pending local due time should panic")
		}
	}()
	nw.SkipTo(6) // due is 5
}

func TestSkipToAdvancesClockAndPanicsWhenBusy(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	nw.SkipTo(500)
	if nw.Now() != 500 {
		t.Errorf("Now = %d, want 500", nw.Now())
	}
	nw.Step()
	if nw.Now() != 501 {
		t.Errorf("Now after Step = %d, want 501", nw.Now())
	}
	if err := nw.Send(&Message{Src: 0, Dst: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SkipTo on a busy fabric should panic")
		}
	}()
	nw.SkipTo(1000)
}
