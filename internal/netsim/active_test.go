package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"locality/internal/topology"
)

// twinNets builds two identical networks, one driven by the active
// worklist and one forced to the dense reference sweep.
func twinNets(t *testing.T, k, n, depth int) (active, dense *Network) {
	t.Helper()
	build := func() *Network {
		nw, err := New(Config{Topo: topology.MustNew(k, n), BufferDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	active, dense = build(), build()
	dense.forceDenseSweep()
	return active, dense
}

// sendRandom drives identical randomized traffic into both networks.
func sendRandom(t *testing.T, rng *rand.Rand, nets ...*Network) {
	t.Helper()
	nodes := nets[0].nodes
	src, dst := rng.Intn(nodes), rng.Intn(nodes)
	size := 1 + rng.Intn(10)
	for _, nw := range nets {
		if err := nw.Send(&Message{Src: src, Dst: dst, Size: size}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestActiveSetMatchesDenseSweep is the worklist's core differential
// guarantee: stepping via the active worklist and stepping via the
// dense all-routers sweep produce identical deliveries, statistics,
// and serialized fabric state, cycle for cycle.
func TestActiveSetMatchesDenseSweep(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		active, dense := twinNets(t, 4, 2, 2)
		var aDel, dDel []string
		active.SetDelivery(func(now int64, m *Message) {
			aDel = append(aDel, fmt.Sprintf("%d:%d→%d@%d", now, m.Src, m.Dst, m.DeliveredAt))
		})
		dense.SetDelivery(func(now int64, m *Message) {
			dDel = append(dDel, fmt.Sprintf("%d:%d→%d@%d", now, m.Src, m.Dst, m.DeliveredAt))
		})
		rng := rand.New(rand.NewSource(99))
		for cycle := 0; cycle < 2500; cycle++ {
			if rng.Intn(4) == 0 {
				sendRandom(t, rng, active, dense)
			}
			active.Step()
			dense.Step()
			if !reflect.DeepEqual(aDel, dDel) {
				t.Fatalf("cycle %d: deliveries diverged\n active: %v\n dense:  %v", cycle, aDel, dDel)
			}
			if a, d := active.Snapshot(), dense.Snapshot(); a != d {
				t.Fatalf("cycle %d: stats diverged\n active: %+v\n dense:  %+v", cycle, a, d)
			}
			if cycle%50 == 0 {
				a, d := active.Checkpoint(), dense.Checkpoint()
				if !reflect.DeepEqual(a, d) {
					t.Fatalf("cycle %d: serialized fabric state diverged", cycle)
				}
				if err := active.Check(); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				if err := dense.Check(); err != nil {
					t.Fatalf("cycle %d (dense): %v", cycle, err)
				}
			}
		}
		for budget := 0; budget < 200000 && (active.Busy() || dense.Busy()); budget++ {
			active.Step()
			dense.Step()
		}
		if active.Busy() || dense.Busy() {
			t.Fatal("networks did not drain")
		}
		if !reflect.DeepEqual(aDel, dDel) {
			t.Fatal("final deliveries differ")
		}
		if a, d := active.Snapshot(), dense.Snapshot(); a != d {
			t.Fatalf("final stats differ:\n active: %+v\n dense:  %+v", a, d)
		}
		if active.ActiveRouters() != 0 {
			t.Errorf("drained fabric still lists %d active routers", active.ActiveRouters())
		}
	})
}

// TestWorklistInvariantUnderRandomWorkload asserts after every cycle
// that the worklist equals exactly the set of routers with non-empty
// input buffers or injection queues — the Check invariant — across a
// randomized workload, across Step and SkipTo interleavings.
func TestWorklistInvariantUnderRandomWorkload(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		nw, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: 3})
		if err != nil {
			t.Fatal(err)
		}
		nw.SetDelivery(func(now int64, m *Message) {})
		rng := rand.New(rand.NewSource(17))
		for cycle := 0; cycle < 3000; cycle++ {
			if rng.Intn(3) == 0 {
				src, dst := rng.Intn(16), rng.Intn(16)
				// src == dst exercises the local bypass alongside
				// fabric traffic.
				if err := nw.Send(&Message{Src: src, Dst: dst, Size: 1 + rng.Intn(8)}); err != nil {
					t.Fatal(err)
				}
			}
			if nw.Skippable() && rng.Intn(20) == 0 {
				// A quiescent fabric may bulk-skip; the worklist must
				// survive the jump (it is empty by the invariant).
				skip := nw.now + int64(1+rng.Intn(5))
				if due, ok := nw.NextLocalDue(); ok && due < skip {
					skip = due
				}
				nw.SkipTo(skip)
			}
			nw.Step()
			if err := nw.Check(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		drain(t, nw, 200000)
		if err := nw.Check(); err != nil {
			t.Fatal(err)
		}
		if nw.ActiveRouters() != 0 {
			t.Errorf("quiescent fabric lists %d active routers", nw.ActiveRouters())
		}
	})
}

// TestStepSteadyStateDoesNotAllocate covers the decide() scratch-buffer
// reuse (and the lazily allocated buffers' steady state): once traffic
// is flowing and the per-cycle move buffer has grown to its working
// size, Step must be allocation-free.
func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		if err := nw.Send(&Message{Src: src, Dst: dst, Size: 24}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the moves scratch buffer and fault the lazily
	// allocated input buffers along the traffic's routes.
	nw.Run(200)
	if nw.Quiesced() {
		t.Fatal("traffic drained before the steady-state measurement")
	}
	if avg := testing.AllocsPerRun(100, func() { nw.Step() }); avg != 0 {
		t.Errorf("Step allocated %.1f times per cycle in steady state, want 0", avg)
	}
}

// TestInjectQReleasesDeliveredMessages guards the injection-queue leak
// fix: after a queue drains, its backing array must not keep popped
// messages reachable.
func TestInjectQReleasesDeliveredMessages(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	for i := 0; i < 8; i++ {
		if err := nw.Send(&Message{Src: 0, Dst: 5, Size: 2}); err != nil {
			t.Fatal(err)
		}
	}
	backing := nw.injectQ[0][:cap(nw.injectQ[0])]
	drain(t, nw, 10000)
	for i, m := range backing {
		if m != nil {
			t.Fatalf("drained injection queue still references message %d (%p)", i, m)
		}
	}
}

// TestRingsReleaseDeliveredMessages extends the same guarantee to the
// ring slab and the local-bypass list: once traffic drains, no slab
// slot and no slot of local's backing array may reference a message.
func TestRingsReleaseDeliveredMessages(t *testing.T) {
	nw, err := New(Config{Topo: topology.MustNew(4, 2), BufferDepth: 4, LocalDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetDelivery(func(now int64, m *Message) {})
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 300; cycle++ {
		if cycle < 200 {
			// src == dst on about one send in sixteen exercises the
			// local bypass alongside fabric traffic.
			sendRandom(t, rng, nw)
		}
		nw.Step()
	}
	drain(t, nw, 100000)
	for slot, f := range nw.rings.slab[:cap(nw.rings.slab)] {
		if f.msg != nil {
			t.Fatalf("drained fabric's slab slot %d still references message %d→%d", slot, f.msg.Src, f.msg.Dst)
		}
	}
	if cap(nw.local) == 0 {
		t.Fatal("workload sent no local-bypass messages")
	}
	for i, e := range nw.local[:cap(nw.local)] {
		if e.msg != nil {
			t.Fatalf("drained local list slot %d still references message %d→%d", i, e.msg.Src, e.msg.Dst)
		}
	}
}

// TestCheckCatchesActiveSetDrift corrupts one piece of the derived
// per-router state of a 4×4 fabric in mid-traffic — the active bitmap,
// its summary level, the held-output or feeding-input mask, a routed
// head's output key, or the ring lending — and requires Check to
// report it.
func TestCheckCatchesActiveSetDrift(t *testing.T) {
	// find returns the first router (and key) satisfying pred, failing
	// the test when the traffic produced none.
	find := func(t *testing.T, nw *Network, pred func(v, key int) bool) (int, int) {
		for v := 0; v < nw.nodes; v++ {
			for key := 0; key < nw.nin; key++ {
				if pred(v, key) {
					return v, key
				}
			}
		}
		t.Fatal("mid-traffic fabric has no router in the wanted state")
		return 0, 0
	}
	occupied := func(nw *Network, v int) bool { return nw.occ[v] != 0 || len(nw.injectQ[v]) > 0 }
	fed := func(nw *Network, v, key int) bool { return nw.feed[v]>>key&1 != 0 }
	ringed := func(nw *Network, v, key int) bool { return nw.in[v*nw.nin+key].off != 0 }
	// spare holds a ring and no flit, so only the ring checks see it.
	spare := func(nw *Network, v, key int) bool { return ringed(nw, v, key) && nw.occ[v]>>key&1 == 0 }
	active := func(nw *Network, v int) bool { return nw.active[v>>6]>>(v&63)&1 != 0 }
	mutations := []struct {
		name   string
		mutate func(t *testing.T, nw *Network)
	}{
		{"occupied router's active bit cleared", func(t *testing.T, nw *Network) {
			v, _ := find(t, nw, func(v, _ int) bool { return occupied(nw, v) })
			nw.deactivate(v)
		}},
		{"drained router's active bit set", func(t *testing.T, nw *Network) {
			v, _ := find(t, nw, func(v, _ int) bool { return !occupied(nw, v) })
			nw.activate(v)
		}},
		{"summary bit cleared under a non-empty word", func(t *testing.T, nw *Network) {
			nw.activeSum[0] &^= 1
		}},
		{"summary bit set over an empty word", func(t *testing.T, nw *Network) {
			nw.activeSum[0] |= 2
		}},
		{"held bit set without an owner", func(t *testing.T, nw *Network) {
			v, key := find(t, nw, func(v, key int) bool { return nw.owner[v*nw.nin+key] == nil })
			nw.held[v] |= 1 << key
		}},
		{"held bit cleared while an owner exists", func(t *testing.T, nw *Network) {
			v, key := find(t, nw, func(v, key int) bool { return nw.owner[v*nw.nin+key] != nil })
			nw.held[v] &^= 1 << key
		}},
		{"feed bit set on an input feeding nothing", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return !fed(nw, v, input) })
			nw.feed[v] |= 1 << input
		}},
		{"feed bit cleared while the input feeds a held output", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return fed(nw, v, input) })
			nw.feed[v] &^= 1 << input
		}},
		{"fed input's key pointed at another output", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return fed(nw, v, input) })
			nw.reqKey[v*nw.nin+input] ^= 1
		}},
		{"waiting head's key pointed at another output", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return nw.occ[v]>>input&1 != 0 && !fed(nw, v, input) })
			nw.reqKey[v*nw.nin+input] ^= 1
		}},
		{"lent ring offset misaligned", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return spare(nw, v, input) })
			nw.in[v*nw.nin+input].off++
		}},
		{"lent ring offset past the slab", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return spare(nw, v, input) })
			nw.in[v*nw.nin+input].off = int32(len(nw.rings.slab))
		}},
		{"ring lent to two buffers", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return spare(nw, v, input) })
			w, key := find(t, nw, func(w, key int) bool { return active(nw, w) && !ringed(nw, w, key) })
			nw.in[w*nw.nin+key].off = nw.in[v*nw.nin+input].off
		}},
		{"sentinel on the free list", func(t *testing.T, nw *Network) {
			nw.rings.free = append(nw.rings.free, 0)
		}},
		{"lent ring also free", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return ringed(nw, v, input) })
			nw.rings.free = append(nw.rings.free, nw.in[v*nw.nin+input].off)
		}},
		{"free ring listed twice", func(t *testing.T, nw *Network) {
			if len(nw.rings.free) == 0 {
				t.Fatal("mid-traffic fabric has returned no ring")
			}
			nw.rings.free = append(nw.rings.free, nw.rings.free[0])
		}},
		{"returned ring dropped from the free list", func(t *testing.T, nw *Network) {
			if len(nw.rings.free) == 0 {
				t.Fatal("mid-traffic fabric has returned no ring")
			}
			nw.rings.free = nw.rings.free[1:]
		}},
		{"drained router keeps a ring", func(t *testing.T, nw *Network) {
			v, _ := find(t, nw, func(v, _ int) bool { return !active(nw, v) })
			nw.rings.lend(&nw.in[v*nw.nin])
		}},
		{"occupied buffer without a ring", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return nw.occ[v]>>input&1 != 0 })
			in := &nw.in[v*nw.nin+input]
			nw.rings.free = append(nw.rings.free, in.off)
			in.off = 0
		}},
		{"push to a ringless buffer wrote the sentinel", func(t *testing.T, nw *Network) {
			nw.rings.slab[0].seq = 1
		}},
		{"vacated slot keeps a message", func(t *testing.T, nw *Network) {
			v, input := find(t, nw, func(v, input int) bool { return spare(nw, v, input) })
			nw.rings.slab[nw.in[v*nw.nin+input].off].msg = &Message{Size: 1}
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			nw := newNet(t, 4, 2, 4)
			rng := rand.New(rand.NewSource(31))
			for cycle := 0; cycle < 40; cycle++ {
				if cycle%2 == 0 {
					sendRandom(t, rng, nw)
				}
				nw.Step()
			}
			if err := nw.Check(); err != nil {
				t.Fatalf("before the mutation: %v", err)
			}
			tc.mutate(t, nw)
			if err := nw.Check(); err == nil {
				t.Fatal("Check passed a corrupted fabric")
			} else {
				t.Log(err)
			}
		})
	}
}

// newIdleCornerNet builds a large torus with a little traffic pinned in
// one corner — the mostly-idle regime the worklist targets. refill
// re-arms the corner traffic so the fabric never drains during timing.
func newIdleCornerNet(tb testing.TB, k int, dense bool) (nw *Network, refill func()) {
	tor := topology.MustNew(k, 2)
	nw, err := New(Config{Topo: tor, BufferDepth: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if dense {
		nw.forceDenseSweep()
	}
	nw.SetDelivery(func(now int64, m *Message) {})
	refill = func() {
		if nw.QueuedMessages() > 8 {
			return
		}
		for i := 0; i < 4; i++ {
			// Short hops among the corner's neighborhood.
			src := i * k
			dst := (i+1)*k + 1
			if err := nw.Send(&Message{Src: src, Dst: dst, Size: 12}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	refill()
	return nw, refill
}

// BenchmarkLargeIdleFabric measures a mostly-idle 256×256 torus
// (65,536 routers, a handful active) under the active worklist vs the
// dense reference sweep. The worklist's per-cycle cost tracks the
// active handful; the dense sweep pays for every router.
func BenchmarkLargeIdleFabric(b *testing.B) {
	for _, mode := range []string{"active", "dense"} {
		b.Run(mode, func(b *testing.B) {
			nw, refill := newIdleCornerNet(b, 256, mode == "dense")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refill()
				nw.Step()
			}
		})
	}
}

// TestLargeIdleFabricSpeedup is the CI gate on the worklist's payoff:
// ≥10× over the dense sweep on the mostly-idle 256×256 torus. The
// real margin is orders of magnitude (tens of active routers vs
// 65,536), so the 10× floor has enormous headroom against noise.
func TestLargeIdleFabricSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-torus timing comparison skipped in -short")
	}
	const cycles = 120
	timeMode := func(dense bool) time.Duration {
		nw, refill := newIdleCornerNet(t, 256, dense)
		// Warm both paths through one step before timing.
		refill()
		nw.Step()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			refill()
			nw.Step()
		}
		return time.Since(start)
	}
	activeT := timeMode(false)
	denseT := timeMode(true)
	speedup := float64(denseT) / float64(activeT)
	t.Logf("mostly-idle 256×256: active %v, dense %v for %d cycles → %.0f× speedup", activeT, denseT, cycles, speedup)
	if speedup < 10 {
		t.Errorf("active worklist speedup %.1f× on a mostly-idle 256×256 torus, want ≥ 10×", speedup)
	}
}

// ringedBuffers counts the buffers holding a ring.
func ringedBuffers(nw *Network) int {
	n := 0
	for i := range nw.in {
		if nw.in[i].off != 0 {
			n++
		}
	}
	return n
}

// TestRingSlabFollowsActiveSet drives bursts of random traffic, with
// quiet gaps between them, through a 32×32 fabric. The slab carves a
// ring only when none is free, so it never holds more rings than the
// peak number of buffers ringed at once; its idle capacity stays within
// one growth step; and a drained fabric lends no ring and holds no
// flit.
func TestRingSlabFollowsActiveSet(t *testing.T) {
	nw, twin := newNet(t, 32, 2, 4), newNet(t, 32, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	twin.SetDelivery(func(now int64, m *Message) {})
	depth := nw.cfg.BufferDepth
	// step runs Step's phases on nw and counts the buffers ringed at
	// the cycle's fullest point: after commit has lent, before
	// compactActive takes drained routers' rings back. twin runs Step
	// itself, so the final comparison pins the phases to Step's.
	step := func() int {
		nw.worklist = nw.appendActive(nw.worklist[:0])
		nw.decide()
		nw.commit()
		ringed := ringedBuffers(nw)
		nw.compactActive()
		nw.stepLocal()
		nw.now++
		twin.Step()
		return ringed
	}
	rng := rand.New(rand.NewSource(41))
	peak := 0
	for cycle := 0; cycle < 2400; cycle++ {
		if cycle%600 < 200 {
			for i := 0; i < 6; i++ {
				sendRandom(t, rng, nw, twin)
			}
		}
		peak = max(peak, step())
		carved := len(nw.rings.slab)/depth - 1
		if carved > peak {
			t.Fatalf("cycle %d: slab carved %d rings, more than the %d buffers ever ringed at once", cycle, carved, peak)
		}
		if idle := cap(nw.rings.slab)/depth - 1 - carved; idle > max(64, carved/4) {
			t.Fatalf("cycle %d: %d rings carved with %d idle behind them", cycle, carved, idle)
		}
		if cycle%200 == 0 {
			if err := nw.Check(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	for budget := 0; budget < 100000 && nw.Busy(); budget++ {
		step()
	}
	if nw.Busy() || twin.Busy() {
		t.Fatal("the fabric did not drain")
	}
	if !reflect.DeepEqual(nw.Checkpoint(), twin.Checkpoint()) {
		t.Fatal("Step's phases run one by one diverged from Step")
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if n := ringedBuffers(nw); n != 0 {
		t.Errorf("drained fabric lends %d rings", n)
	}
	for slot, f := range nw.rings.slab[:cap(nw.rings.slab)] {
		if f != (flit{}) {
			t.Fatalf("drained fabric's slab slot %d holds %+v", slot, f)
		}
	}
	carved := len(nw.rings.slab)/depth - 1
	if len(nw.rings.free) != carved {
		t.Errorf("drained fabric has %d free rings of %d carved", len(nw.rings.free), carved)
	}
	t.Logf("32×32: peak %d of %d buffers ringed at once, slab %d rings", peak, len(nw.in), carved)
}

// TestRingRestoreLendsOccupiedBuffers: restoring a mid-traffic
// checkpoint, into a fresh network or over the one that wrote it,
// lends a ring to exactly the occupied buffers and frees nothing, and
// the restored fabric runs on as the original does.
func TestRingRestoreLendsOccupiedBuffers(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	rng := rand.New(rand.NewSource(43))
	for cycle := 0; cycle < 300; cycle++ {
		if cycle%3 == 0 {
			sendRandom(t, rng, nw)
		}
		nw.Step()
	}
	if len(nw.rings.free) == 0 {
		t.Fatal("the traffic returned no ring before the checkpoint")
	}
	ck := nw.Checkpoint()
	fresh := newNet(t, 8, 2, 4)
	for name, rs := range map[string]*Network{"fresh": fresh, "same": nw} {
		if err := rs.Restore(ck); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		occupied := 0
		for i := range rs.in {
			if (rs.in[i].off != 0) != (rs.in[i].count > 0) {
				t.Fatalf("%s: buffer %d holds %d flits and ring offset %d", name, i, rs.in[i].count, rs.in[i].off)
			}
			if rs.in[i].count > 0 {
				occupied++
			}
		}
		if occupied == 0 {
			t.Fatalf("%s: the checkpoint buffers no flit", name)
		}
		if carved := len(rs.rings.slab)/rs.cfg.BufferDepth - 1; carved != occupied || len(rs.rings.free) != 0 {
			t.Errorf("%s: slab carved %d rings with %d free for %d occupied buffers", name, carved, len(rs.rings.free), occupied)
		}
	}
	for cycle := 0; cycle < 200; cycle++ {
		nw.Step()
		fresh.Step()
	}
	if !reflect.DeepEqual(nw.Checkpoint(), fresh.Checkpoint()) {
		t.Error("the two restored networks diverged")
	}
}
