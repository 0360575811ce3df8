package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"locality/internal/topology"
)

func newNet(t *testing.T, k, n, depth int) *Network {
	t.Helper()
	nw, err := New(Config{Topo: topology.MustNew(k, n), BufferDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// drain runs the network until quiescent or the cycle budget expires.
func drain(t *testing.T, nw *Network, budget int64) {
	t.Helper()
	for i := int64(0); i < budget; i++ {
		if nw.Quiesced() {
			return
		}
		nw.Step()
	}
	if !nw.Quiesced() {
		t.Fatalf("network did not quiesce within %d cycles (deadlock?)", budget)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Topo: nil, BufferDepth: 4}); err == nil {
		t.Error("nil topology should error")
	}
	if _, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 0}); err == nil {
		t.Error("zero buffer depth should error")
	}
	if _, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: -1}); err == nil {
		t.Error("negative local delay should error")
	}
	// A router's 4n+1 inputs fit one 64-bit mask up to n = 15.
	if _, err := New(Config{Topo: topology.MustNew(2, 16), BufferDepth: 4}); err == nil || !strings.Contains(err.Error(), "at most 15 dimensions") {
		t.Errorf("a 16-dimensional torus: error %v, want one naming the 15-dimension limit", err)
	}
	// A buffer counts its flits in 16 bits.
	if _, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 65535}); err != nil {
		t.Errorf("buffer depth 65,535: %v", err)
	}
	if _, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 65536}); err == nil || !strings.Contains(err.Error(), "at most 65535") {
		t.Errorf("buffer depth 65,536: error %v, want one naming the 65,535 limit", err)
	}
	// Ring offsets are int32: 2^20 routers × 9 buffers × 256 flits pass
	// 2^31 slab flits. Refused before anything is allocated.
	if _, err := New(Config{Topo: topology.MustNew(1024, 2), BufferDepth: 256}); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Errorf("a 2^31-flit slab: error %v, want one naming the slab limit", err)
	}
}

func TestSendValidation(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	if err := nw.Send(&Message{Src: 0, Dst: 1, Size: 0}); err == nil {
		t.Error("zero-size message should error")
	}
	if err := nw.Send(&Message{Src: -1, Dst: 1, Size: 1}); err == nil {
		t.Error("negative src should error")
	}
	if err := nw.Send(&Message{Src: 0, Dst: 99, Size: 1}); err == nil {
		t.Error("out-of-range dst should error")
	}
}

func TestSingleMessageLatency(t *testing.T) {
	// One message in an idle network: head takes 1 cycle into the
	// injection buffer, 1 cycle per hop, 1 cycle to eject, then the
	// remaining B−1 flits drain one per cycle. The model's zero-load
	// latency is hops·Th + B with Th = 1; the simulator adds a couple
	// of cycles of injection/ejection pipelining.
	nw := newNet(t, 8, 2, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	msg := &Message{Src: 0, Dst: 3, Size: 12} // 3 hops in dimension 0
	if err := nw.Send(msg); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered == nil {
		t.Fatal("message not delivered")
	}
	if delivered.Hops != 3 {
		t.Errorf("Hops = %d, want 3", delivered.Hops)
	}
	lat := delivered.Latency()
	ideal := int64(3 + 12) // hops + size
	if lat < ideal || lat > ideal+4 {
		t.Errorf("latency = %d, want within [%d, %d]", lat, ideal, ideal+4)
	}
}

func TestWraparoundRouteIsMinimal(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	// 0 → 7 in dimension 0 is one hop backward across the wrap edge.
	if err := nw.Send(&Message{Src: 0, Dst: 7, Size: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered.Hops != 1 {
		t.Errorf("wraparound Hops = %d, want 1", delivered.Hops)
	}
}

func TestLocalMessageBypassesFabric(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	if err := nw.Send(&Message{Src: 5, Dst: 5, Size: 24}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 100)
	if delivered == nil {
		t.Fatal("local message not delivered")
	}
	if delivered.Hops != 0 {
		t.Errorf("local Hops = %d, want 0", delivered.Hops)
	}
	if got := delivered.Latency(); got != 1 {
		t.Errorf("local latency = %d, want LocalDelay = 1", got)
	}
	if s := nw.Snapshot(); s.Injected != 0 || s.Delivered != 0 {
		t.Errorf("local message counted as network traffic: %+v", s)
	}
}

func TestAllMessagesDelivered(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	deliveredBy := map[*Message]bool{}
	nw.SetDelivery(func(now int64, m *Message) {
		if deliveredBy[m] {
			t.Error("message delivered twice")
		}
		deliveredBy[m] = true
	})
	rng := rand.New(rand.NewSource(1))
	var sent []*Message
	for i := 0; i < 500; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		m := &Message{Src: src, Dst: dst, Size: 1 + rng.Intn(24)}
		if err := nw.Send(m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
	}
	drain(t, nw, 100000)
	for _, m := range sent {
		if !deliveredBy[m] {
			t.Errorf("message %d->%d lost", m.Src, m.Dst)
		}
	}
	s := nw.Snapshot()
	if s.Injected != int64(len(sent)) || s.Delivered != int64(len(sent)) {
		t.Errorf("injected/delivered = %d/%d, want %d", s.Injected, s.Delivered, len(sent))
	}
}

func TestHopsMatchTopologyDistance(t *testing.T) {
	tor := topology.MustNew(8, 2)
	nw, err := New(Config{Topo: tor, BufferDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hops := map[*Message]int{}
	nw.SetDelivery(func(now int64, m *Message) { hops[m] = m.Hops })
	rng := rand.New(rand.NewSource(2))
	var sent []*Message
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		m := &Message{Src: src, Dst: dst, Size: 6}
		if err := nw.Send(m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
	}
	drain(t, nw, 100000)
	for _, m := range sent {
		if hops[m] != tor.Distance(m.Src, m.Dst) {
			t.Errorf("%d->%d: hops %d != distance %d", m.Src, m.Dst, hops[m], tor.Distance(m.Src, m.Dst))
		}
	}
}

func TestFlitConservation(t *testing.T) {
	nw := newNet(t, 8, 2, 2)
	var deliveredFlits int64
	nw.SetDelivery(func(now int64, m *Message) { deliveredFlits += int64(m.Size) })
	rng := rand.New(rand.NewSource(3))
	var sentFlits, expectedFlitHops int64
	tor := topology.MustNew(8, 2)
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		size := 1 + rng.Intn(12)
		m := &Message{Src: src, Dst: dst, Size: size}
		if err := nw.Send(m); err != nil {
			t.Fatal(err)
		}
		sentFlits += int64(size)
		expectedFlitHops += int64(size * tor.Distance(src, dst))
	}
	drain(t, nw, 200000)
	if deliveredFlits != sentFlits {
		t.Errorf("delivered %d flits, sent %d", deliveredFlits, sentFlits)
	}
	if s := nw.Snapshot(); s.FlitHops != expectedFlitHops {
		t.Errorf("FlitHops = %d, want %d (minimal routes)", s.FlitHops, expectedFlitHops)
	}
}

func TestHeavyLoadNoDeadlock(t *testing.T) {
	// Saturate the wrap rings: every node sends long messages halfway
	// around its row, the classic torus deadlock pattern that the
	// dateline VC discipline must break.
	nw := newNet(t, 8, 1, 2)
	count := 0
	nw.SetDelivery(func(now int64, m *Message) { count++ })
	for round := 0; round < 20; round++ {
		for src := 0; src < 8; src++ {
			dst := (src + 4) % 8
			if err := nw.Send(&Message{Src: src, Dst: dst, Size: 24}); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(t, nw, 200000)
	if count != 160 {
		t.Errorf("delivered %d messages, want 160", count)
	}
}

func TestAdversarialRingTrafficNoDeadlock(t *testing.T) {
	// All nodes flood in the same ring direction with messages that
	// wrap the dateline; without VCs this livelocks/deadlocks.
	nw := newNet(t, 4, 2, 1)
	delivered := 0
	nw.SetDelivery(func(now int64, m *Message) { delivered++ })
	rng := rand.New(rand.NewSource(7))
	sent := 0
	for i := 0; i < 2000; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		if src == dst {
			continue
		}
		if err := nw.Send(&Message{Src: src, Dst: dst, Size: 8}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	drain(t, nw, 1000000)
	if delivered != sent {
		t.Errorf("delivered %d, want %d", delivered, sent)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	// Inject uniform random traffic at two rates; the loaded network
	// must exhibit higher average latency.
	latencyAt := func(gap int64) float64 {
		nw := newNet(t, 8, 2, 4)
		nw.SetDelivery(func(now int64, m *Message) {})
		rng := rand.New(rand.NewSource(9))
		var cycle int64
		for cycle = 0; cycle < 20000; cycle++ {
			if cycle%gap == 0 {
				for v := 0; v < 64; v++ {
					dst := rng.Intn(64)
					if dst == v {
						continue
					}
					if err := nw.Send(&Message{Src: v, Dst: dst, Size: 12}); err != nil {
						t.Fatal(err)
					}
				}
			}
			nw.Step()
		}
		drain(t, nw, 1000000)
		return nw.Snapshot().AvgLatency
	}
	light := latencyAt(400)
	heavy := latencyAt(60)
	if heavy <= light {
		t.Errorf("latency under load (%g) should exceed light-load latency (%g)", heavy, light)
	}
}

func TestSnapshotUtilization(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	if err := nw.Send(&Message{Src: 0, Dst: 2, Size: 10}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 10000)
	s := nw.Snapshot()
	if s.ChannelUtilization <= 0 || s.ChannelUtilization >= 1 {
		t.Errorf("utilization = %g, want in (0,1)", s.ChannelUtilization)
	}
	// 10 flits over 2 hops = 20 flit-hops.
	if s.FlitHops != 20 {
		t.Errorf("FlitHops = %d, want 20", s.FlitHops)
	}
	if s.AvgSize != 10 {
		t.Errorf("AvgSize = %g, want 10", s.AvgSize)
	}
	if math.Abs(s.AvgHops-2) > 1e-12 {
		t.Errorf("AvgHops = %g, want 2", s.AvgHops)
	}
}

func TestWormholeOrdering(t *testing.T) {
	// Two messages from the same source to the same destination must
	// arrive in order (single injection queue, deterministic routes).
	nw := newNet(t, 8, 2, 4)
	var order []int
	nw.SetDelivery(func(now int64, m *Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 10; i++ {
		if err := nw.Send(&Message{Src: 0, Dst: 5, Size: 6, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, nw, 10000)
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order %v, want ascending", order)
		}
	}
}

func TestQuiescedInitially(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	if !nw.Quiesced() {
		t.Error("fresh network should be quiescent")
	}
	if err := nw.Send(&Message{Src: 0, Dst: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if nw.Quiesced() {
		t.Error("network with queued traffic should not be quiescent")
	}
}

func TestFIFO(t *testing.T) {
	const depth = 2
	r := newRings(depth, 2)
	var q fifo
	if !q.empty() || q.full(depth) {
		t.Error("fresh fifo state wrong")
	}
	r.lend(&q)
	if q.off != depth {
		t.Fatalf("first ring lent at offset %d, want %d: the sentinel ring at 0 is never lent", q.off, depth)
	}
	m := &Message{Size: 3}
	q.push(r.slab, flit{msg: m, seq: 0}, depth)
	q.push(r.slab, flit{msg: m, seq: 1}, depth)
	if !q.full(depth) {
		t.Error("fifo should be full")
	}
	if f := q.pop(r.slab, depth); f.seq != 0 {
		t.Errorf("pop seq = %d, want 0", f.seq)
	}
	q.push(r.slab, flit{msg: m, seq: 2}, depth) // wraps the ring buffer
	if f := q.pop(r.slab, depth); f.seq != 1 {
		t.Errorf("pop seq = %d, want 1", f.seq)
	}
	if f := q.pop(r.slab, depth); f.seq != 2 {
		t.Errorf("pop seq = %d, want 2", f.seq)
	}
	if !q.empty() {
		t.Error("fifo should be empty")
	}
	for i, f := range r.slab {
		if f != (flit{}) {
			t.Errorf("slab slot %d keeps popped flit %+v", i, f)
		}
	}
	// A reclaimed ring is the next one lent, to whichever buffer asks.
	off := q.off
	bufs := []fifo{q}
	r.reclaim(bufs)
	if bufs[0] != (fifo{}) || len(r.free) != 1 {
		t.Fatalf("reclaim left header %+v and free list %v", bufs[0], r.free)
	}
	var p fifo
	r.lend(&p)
	if p.off != off || len(r.free) != 0 {
		t.Errorf("lent offset %d with free list %v, want the returned ring %d", p.off, r.free, off)
	}
}

func TestFIFOPanics(t *testing.T) {
	r := newRings(1, 1)
	var q fifo
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		f()
	}
	mustPanic("pop of empty fifo", func() { q.pop(r.slab, 1) })
	r.lend(&q)
	q.push(r.slab, flit{}, 1)
	mustPanic("push to full fifo", func() { q.push(r.slab, flit{}, 1) })
}

// TestRingSlabGrowthIsBounded: the slab grows by 64 rings or a quarter,
// whichever is more, never past the sentinel plus one ring per buffer.
func TestRingSlabGrowthIsBounded(t *testing.T) {
	const depth, buffers = 3, 1000
	r := newRings(depth, buffers)
	q := make([]fifo, buffers)
	for i := range q {
		r.lend(&q[i])
		carved := len(r.slab)/depth - 1
		if carved != i+1 {
			t.Fatalf("after %d lends the slab has carved %d rings", i+1, carved)
		}
		if slack, most := cap(r.slab)/depth-1-carved, max(64, carved/4); slack > most {
			t.Fatalf("%d rings carved with %d idle behind them, want at most %d", carved, slack, most)
		}
	}
	if cap(r.slab) != r.limit {
		t.Errorf("slab capacity %d flits with every buffer ringed, want the limit %d", cap(r.slab), r.limit)
	}
}

func TestCheckPassesOnCleanTraffic(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	for i := 0; i < 40; i++ {
		if err := nw.Send(&Message{Src: i % 64, Dst: (i*7 + 3) % 64, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		nw.Step()
		if err := nw.Check(); err != nil {
			t.Fatalf("mid-flight cycle %d: %v", i, err)
		}
	}
	drain(t, nw, 100000)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if nw.flitsIn == 0 || nw.flitsIn != nw.flitsOut {
		t.Errorf("after drain flitsIn=%d flitsOut=%d, want equal and nonzero", nw.flitsIn, nw.flitsOut)
	}
}
