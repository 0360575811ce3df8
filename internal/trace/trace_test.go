package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestZeroTracerIsSafe(t *testing.T) {
	var tr Tracer
	tr.Emit(Event{Kind: KindMsgSend})
	if tr.Enabled() {
		t.Error("zero tracer should be disabled")
	}
	if got := tr.Events(); got != nil {
		t.Errorf("zero tracer retained events: %v", got)
	}
	var nilT *Tracer
	nilT.Emit(Event{Kind: KindMsgSend}) // must not panic
	if nilT.Enabled() || nilT.Count(KindMsgSend) != 0 {
		t.Error("nil tracer should report nothing")
	}
}

func TestNewValidatesCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestEmitAndEvents(t *testing.T) {
	tr := New(10)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: KindTxnComplete, Node: i})
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("retained %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != int64(i) || e.Node != i {
			t.Errorf("event %d = %+v out of order", i, e)
		}
	}
	if tr.Count(KindTxnComplete) != 5 {
		t.Errorf("count = %d, want 5", tr.Count(KindTxnComplete))
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: KindMsgSend})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != int64(6+i) {
			t.Errorf("event %d cycle = %d, want %d (newest four, in order)", i, e.Cycle, 6+i)
		}
	}
	if tr.Count(KindMsgSend) != 10 {
		t.Errorf("count = %d, want 10 despite wrapping", tr.Count(KindMsgSend))
	}
}

func TestDumpAndFilter(t *testing.T) {
	tr := New(10)
	tr.Emit(Event{Cycle: 7, Kind: KindTxnComplete, Node: 3, Addr: 0x40})
	tr.Emit(Event{Cycle: 9, Kind: KindMsgDeliver, Node: 1, Peer: 3})
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "txn-complete") || !strings.Contains(out, "msg-deliver") {
		t.Errorf("dump missing events:\n%s", out)
	}
	only := tr.Filter(func(e Event) bool { return e.Node == 3 })
	if len(only) != 1 || only[0].Kind != KindTxnComplete {
		t.Errorf("filter result = %v", only)
	}
}

func TestKindStrings(t *testing.T) {
	if KindMsgSend.String() != "msg-send" || KindKernelSkip.String() != "kernel-skip" {
		t.Error("kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestExactCapacityBoundary(t *testing.T) {
	tr := New(3)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: KindMsgSend})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Errorf("exactly-full buffer events = %v", evs)
	}
	tr.Emit(Event{Cycle: 3, Kind: KindMsgSend})
	evs = tr.Events()
	if len(evs) != 3 || evs[0].Cycle != 1 || evs[2].Cycle != 3 {
		t.Errorf("one-past-full buffer events = %v", evs)
	}
}
