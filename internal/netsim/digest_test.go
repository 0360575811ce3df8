package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"locality/internal/topology"
)

// TestFabricDigests pins the fabric's exact cycle-level behaviour: each
// row drives seeded random traffic (sizes 1–24; a size-1 worm acquires
// and releases its output in one move) through a torus, drains it, and
// hashes every delivery — cycle, endpoints, size, injection cycle and
// hop count — and the final statistics, field by field, into an
// FNV-64a digest. The committed digests were recorded from the
// candidate-key decide, which matched the scan-per-port decide before
// it delivery for delivery, so any change to which flit moves when, or
// in what order arbitration grants, fails here. Rows cover a
// ring, a depth-1 2-D torus, the 8×8 machine's depth-8 fabric, an odd
// radix (no halfway ties), a 3-D torus at depth 2, and the widest
// one-word router (k=2, n=15: nin = 61).
func TestFabricDigests(t *testing.T) {
	rows := []struct {
		name        string
		k, n, depth int
		cycles      int     // cycles of offered traffic before the drain
		rate        float64 // mean messages sent per cycle
		check       bool    // run the whole-fabric Check every 64 cycles
		want        uint64
	}{
		{name: "ring-k5", k: 5, n: 1, depth: 4, cycles: 1500, rate: 0.4, check: true, want: 0xb59c9d1a939de3f7},
		{name: "4x4-depth1", k: 4, n: 2, depth: 1, cycles: 1500, rate: 0.8, check: true, want: 0x307ff601c891a0a8},
		{name: "8x8-depth8", k: 8, n: 2, depth: 8, cycles: 1500, rate: 2.5, check: true, want: 0x688bff783547b438},
		{name: "3x3x3", k: 3, n: 3, depth: 4, cycles: 1500, rate: 1.5, check: true, want: 0x8889eee4b1786a0e},
		{name: "4x4x4-depth2", k: 4, n: 3, depth: 2, cycles: 1200, rate: 2.5, check: true, want: 0xe440b3de655f9607},
		{name: "k2-n15", k: 2, n: 15, depth: 2, cycles: 60, rate: 0.5, want: 0x4c987e4335f080f6},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tor := topology.MustNew(row.k, row.n)
			nw, err := New(Config{Topo: tor, BufferDepth: row.depth})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			nw.SetDelivery(func(now int64, m *Message) {
				fmt.Fprintf(h, "%d %d %d %d %d %d\n", now, m.Src, m.Dst, m.Size, m.InjectedAt, m.Hops)
			})
			rng := rand.New(rand.NewSource(int64(row.k*100 + row.n)))
			nodes := tor.Nodes()
			for cycle := 0; cycle < row.cycles; cycle++ {
				for budget := row.rate; rng.Float64() < budget; budget-- {
					msg := &Message{Src: rng.Intn(nodes), Dst: rng.Intn(nodes), Size: 1 + rng.Intn(24)}
					if err := nw.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				nw.Step()
				if row.check && cycle%64 == 0 {
					if err := nw.Check(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
				}
			}
			drain(t, nw, 200000)
			// The statistics are hashed field by field, so adding or
			// removing a Stats field does not change a digest.
			st := nw.Snapshot()
			fmt.Fprintf(h, "%d %d %d %v %v %v %v %v %d\n", st.Injected, st.Delivered, st.FlitHops,
				st.AvgLatency, st.AvgNetLatency, st.AvgHops, st.AvgSize, st.ChannelUtilization, st.Cycles)
			got := h.Sum64()
			t.Logf("%d delivered, %d flit hops, %d cycles: digest %#016x", st.Delivered, st.FlitHops, st.Cycles, got)
			if got != row.want {
				t.Errorf("digest %#016x, want %#016x", got, row.want)
			}
		})
	}
}
