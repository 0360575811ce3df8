package cohsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestEventQueueFiresInDueSeqOrder interleaves random pushes and pops,
// with dues drawn from a handful of values so most keys tie on due,
// then drains the queue, checking every pop against a sorted reference.
func TestEventQueueFiresInDueSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q eventQueue
	var ref []event
	seq := int64(0)
	for step := 0; step < 20000 || len(ref) > 0; step++ {
		if step < 20000 && (len(ref) == 0 || rng.Intn(2) == 0) {
			seq++
			e := event{due: int64(rng.Intn(6)), seq: seq, act: action{addr: uint64(seq)}}
			q.push(e.due, e.seq, e.act)
			ref = append(ref, e)
			continue
		}
		i := 0
		for j := range ref {
			if ref[j].due < ref[i].due || ref[j].due == ref[i].due && ref[j].seq < ref[i].seq {
				i = j
			}
		}
		want := ref[i]
		ref = slices.Delete(ref, i, i+1)
		if due := q.due(); due != want.due {
			t.Fatalf("step %d: queue due %d, reference %d", step, due, want.due)
		}
		if got := q.pop(); got != want.act {
			t.Fatalf("step %d: popped action for seq %d, want seq %d", step, got.addr, want.seq)
		}
	}
	if q.len() != 0 || len(q.free) != len(q.acts) {
		t.Fatalf("drained queue holds %d events, %d of %d slots free", q.len(), len(q.free), len(q.acts))
	}
}

// TestCheckpointRestoresEventOrder snapshots a protocol whose action
// slab has free slots, restores it into a fresh engine, and requires
// the same Events list and, under an identical later schedule of
// pushes and pops, the same firing order. Firing is compared at the
// queue rather than through Tick: both engines share the checkpoint's
// transactions, so only one of them may run them.
func TestCheckpointRestoresEventOrder(t *testing.T) {
	p, net := newTestProtocol(t, 4, func(int, int, int64) {})
	for i := 0; i < 8; i++ {
		p.Access(i%4, 0, lineFor((i+1)%4)+uint64(16*4*(i/4)), i%2 == 0, 0)
	}
	for net.now = 0; net.now < 30 || len(p.events.free) == 0 || p.events.len() < 2; net.now++ {
		if net.now > 1000 {
			t.Fatal("protocol never had free slots and pending events at once")
		}
		var still []pendingMsg
		for _, pm := range net.queue {
			if pm.due <= net.now {
				p.Deliver(pm.dst, pm.m, net.now)
			} else {
				still = append(still, pm)
			}
		}
		net.queue = still
		p.Tick(net.now)
	}
	ck := p.Checkpoint()

	fresh, _ := newTestProtocol(t, 4, func(int, int, int64) {})
	if err := fresh.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Checkpoint(); !reflect.DeepEqual(got.Events, ck.Events) {
		t.Fatalf("restored Events differ:\n got %+v\nwant %+v", got.Events, ck.Events)
	}

	rng := rand.New(rand.NewSource(9))
	for step := 0; p.events.len() > 0 || step < 200; step++ {
		if step < 200 && rng.Intn(2) == 0 {
			delay := rng.Intn(4)
			a := action{kind: actTransportSend, size: step}
			p.schedule(delay, a)
			fresh.schedule(delay, a)
			continue
		}
		if p.events.len() == 0 {
			continue
		}
		wantDue, gotDue := p.events.due(), fresh.events.due()
		want, got := p.events.pop(), fresh.events.pop()
		if wantDue != gotDue || want != got {
			t.Fatalf("step %d: restored engine fires %+v at %d, original %+v at %d", step, got, gotDue, want, wantDue)
		}
	}
	if fresh.events.len() != 0 {
		t.Fatalf("restored engine kept %d events the original does not have", fresh.events.len())
	}
}

// TestRestoreRejectsBadEvents: restore must refuse events out of (due,
// seq) order, events whose sequence number the protocol sequence has
// not reached, since a later event would reuse it, an action kind past
// the last, a peer outside the machine, and a transport send of no
// flits, which the network would refuse mid-run.
func TestRestoreRejectsBadEvents(t *testing.T) {
	p, _ := newTestProtocol(t, 4, func(int, int, int64) {})
	p.Access(0, 0, lineFor(1), false, 0)
	p.Access(2, 0, lineFor(3), true, 0)
	if p.events.len() < 2 {
		t.Fatalf("want at least 2 pending events, have %d", p.events.len())
	}
	mutate := func(f func(*CheckpointState)) CheckpointState {
		s := p.Checkpoint()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		s    CheckpointState
	}{
		{"swapped", mutate(func(s *CheckpointState) { s.Events[0], s.Events[1] = s.Events[1], s.Events[0] })},
		{"duplicate", mutate(func(s *CheckpointState) { s.Events[1] = s.Events[0] })},
		{"sequence beyond protocol", mutate(func(s *CheckpointState) { s.Seq = 0 })},
		{"kind past actGrantFill", mutate(func(s *CheckpointState) { s.Events[0].Act.Kind = uint8(actGrantFill) + 1 })},
		{"peer out of range", mutate(func(s *CheckpointState) { s.Events[0].Act.Peer = -1 })},
		{"empty transport send", mutate(func(s *CheckpointState) {
			s.Events[0].Act.Kind = uint8(actTransportSend)
			s.Events[0].Act.Size = 0
		})},
	}
	for _, tc := range cases {
		fresh, _ := newTestProtocol(t, 4, func(int, int, int64) {})
		if err := fresh.Restore(tc.s); err == nil {
			t.Errorf("%s: restore accepted the events", tc.name)
		}
	}
	fresh, _ := newTestProtocol(t, 4, func(int, int, int64) {})
	if err := fresh.Restore(p.Checkpoint()); err != nil {
		t.Errorf("restore rejected an unmodified checkpoint: %v", err)
	}
}
