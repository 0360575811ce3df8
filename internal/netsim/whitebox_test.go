package netsim

import "testing"

// White-box tests for the routing internals: virtual-channel dateline
// discipline and minimal-direction tie balancing.

// TestPortTablesMatchTopology checks the per-port neighbor table and
// the dateline crossing derived from it against the topology: every
// nbr entry is topo.Neighbor(v, o/2, ±1), and a hop wraps iff it goes
// k−1 → 0 in the positive direction or 0 → k−1 in the negative.
func TestPortTablesMatchTopology(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8} {
		for n := 1; n <= 3; n++ {
			nw := newNet(t, k, n, 4)
			for v := 0; v < nw.nodes; v++ {
				coords := nw.topo.Coords(v)
				for o := 0; o < nw.ports; o++ {
					dim, dir := o/2, 1-2*(o%2)
					next := int(nw.nbr[v*nw.ports+o])
					if want := nw.topo.Neighbor(v, dim, dir); next != want {
						t.Fatalf("k=%d n=%d: nbr[%v port %d] = %d, want %d", k, n, coords, o, next, want)
					}
					want := dir == 1 && coords[dim] == k-1 || dir == -1 && coords[dim] == 0
					if got := wraps(v, o, next); got != want {
						t.Fatalf("k=%d n=%d: wraps(%v, port %d) = %v, want %v", k, n, coords, o, got, want)
					}
				}
			}
		}
	}
	// Named rows on the 8×8 torus.
	nw := newNet(t, 8, 2, 4)
	tests := []struct {
		coords []int
		port   int // 2·dim + (dir<0 ? 1 : 0)
		want   bool
	}{
		{[]int{7, 0}, 0, true},  // +x from x=7 wraps
		{[]int{6, 0}, 0, false}, // +x from x=6 does not
		{[]int{0, 0}, 1, true},  // −x from x=0 wraps
		{[]int{1, 0}, 1, false},
		{[]int{0, 7}, 2, true},  // +y from y=7 wraps
		{[]int{0, 7}, 0, false}, // +x unaffected by y coordinate
		{[]int{3, 0}, 3, true},  // −y from y=0 wraps
	}
	for _, tc := range tests {
		v := nw.topo.ID(tc.coords)
		if got := wraps(v, tc.port, int(nw.nbr[v*nw.ports+tc.port])); got != tc.want {
			t.Errorf("wraps(%v, port %d) = %v, want %v", tc.coords, tc.port, got, tc.want)
		}
	}
}

func TestVCForResetsAcrossDimensions(t *testing.T) {
	msg := &Message{curDim: 0, vcClass: 1}
	if vc := vcFor(msg, 0); vc != 1 {
		t.Errorf("same dimension should keep VC class: got %d", vc)
	}
	if vc := vcFor(msg, 2); vc != 0 {
		t.Errorf("new dimension should reset to VC0: got %d", vc)
	}
	fresh := &Message{curDim: -1}
	if vc := vcFor(fresh, 0); vc != 0 {
		t.Errorf("first hop should use VC0: got %d", vc)
	}
}

func TestWormSwitchesToVC1AfterDateline(t *testing.T) {
	// A message from x=6 to x=1 travels +x through the wrap edge:
	// hops 6→7 (VC0), 7→0 (VC0, crossing), 0→1 (VC1).
	nw := newNet(t, 8, 1, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	if err := nw.Send(&Message{Src: 6, Dst: 1, Size: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered == nil {
		t.Fatal("message lost")
	}
	if delivered.Hops != 3 {
		t.Fatalf("hops = %d, want 3", delivered.Hops)
	}
	if delivered.vcClass != 1 {
		t.Errorf("worm should end on VC1 after crossing the dateline, got class %d", delivered.vcClass)
	}
}

func TestWormStaysOnVC0WithoutWrap(t *testing.T) {
	nw := newNet(t, 8, 1, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	if err := nw.Send(&Message{Src: 1, Dst: 4, Size: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered.vcClass != 0 {
		t.Errorf("worm without dateline crossing should stay on VC0, got class %d", delivered.vcClass)
	}
}

func TestHalfwayTieBalanced(t *testing.T) {
	// On an 8-ring, destinations exactly 4 away are reachable both
	// ways; the tie-break must send about half of the sources each
	// direction so channel load stays symmetric.
	nw := newNet(t, 8, 1, 4)
	pos, neg := 0, 0
	for src := 0; src < 8; src++ {
		dst := (src + 4) % 8
		port, eject := nw.outputPortFor(src, dst)
		if eject {
			t.Fatalf("src %d dst %d should not eject", src, dst)
		}
		switch port {
		case 0:
			pos++
		case 1:
			neg++
		default:
			t.Fatalf("unexpected port %d", port)
		}
	}
	if pos != 4 || neg != 4 {
		t.Errorf("tie split = %d positive / %d negative, want 4/4", pos, neg)
	}
}

func TestTieRouteConsistentPerPair(t *testing.T) {
	// All messages between the same endpoints must take the same route
	// (the coherence protocol relies on per-pair FIFO ordering).
	nw := newNet(t, 8, 2, 4)
	var hops []int
	nw.SetDelivery(func(now int64, m *Message) { hops = append(hops, m.Hops) })
	for i := 0; i < 5; i++ {
		if err := nw.Send(&Message{Src: 3, Dst: (3 + 4) % 8, Size: 6}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, nw, 10000)
	for _, h := range hops {
		if h != 4 {
			t.Errorf("hop count %d, want 4 (minimal both ways)", h)
		}
	}
}

func TestEjectionSharedFairly(t *testing.T) {
	// Two sources flood one destination; both must make progress (the
	// ejection port is arbitrated, not captured).
	nw := newNet(t, 8, 2, 4)
	bySrc := map[int]int{}
	nw.SetDelivery(func(now int64, m *Message) { bySrc[m.Src]++ })
	for i := 0; i < 30; i++ {
		if err := nw.Send(&Message{Src: 1, Dst: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
		if err := nw.Send(&Message{Src: 8, Dst: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, nw, 100000)
	if bySrc[1] != 30 || bySrc[8] != 30 {
		t.Fatalf("deliveries by source = %v, want 30 each", bySrc)
	}
}

func TestInjectionBackpressure(t *testing.T) {
	// A node can queue arbitrarily many messages, but the fabric
	// accepts only one flit per cycle: the send queue drains at channel
	// rate and nothing is lost.
	nw := newNet(t, 4, 2, 2)
	count := 0
	nw.SetDelivery(func(now int64, m *Message) { count++ })
	const n = 50
	for i := 0; i < n; i++ {
		if err := nw.Send(&Message{Src: 0, Dst: 1, Size: 12}); err != nil {
			t.Fatal(err)
		}
	}
	// 50 messages × 12 flits on one channel need ≥ 600 cycles.
	nw.Run(550)
	if nw.Quiesced() {
		t.Error("fabric drained implausibly fast for a single channel")
	}
	drain(t, nw, 10000)
	if count != n {
		t.Errorf("delivered %d, want %d", count, n)
	}
}
