package experiments

import "testing"

func TestUCLvsNUCL(t *testing.T) {
	sizes := []float64{64, 1024, 65536, 1048576}
	rows, err := RunUCLvsNUCL(UCLvsNUCLConfig{Sizes: sizes, Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(sizes))
	}
	for i, r := range rows {
		// The torus with an ideal mapping keeps constant latency as
		// machines scale; the other two organizations degrade.
		if i > 0 {
			if r.TorusIdeal != rows[0].TorusIdeal {
				t.Errorf("N=%g: ideal-mapping latency changed with machine size: %g vs %g",
					r.Nodes, r.TorusIdeal, rows[0].TorusIdeal)
			}
			if r.TorusRandom <= rows[i-1].TorusRandom {
				t.Errorf("N=%g: random-mapping latency should grow", r.Nodes)
			}
			if r.Indirect <= rows[i-1].Indirect {
				t.Errorf("N=%g: UCL latency should grow", r.Nodes)
			}
		}
		// Exploiting locality always wins.
		if r.RelRandom >= 1 || r.RelIndirect >= 1 {
			t.Errorf("N=%g: relative performance %g/%g should be below 1", r.Nodes, r.RelRandom, r.RelIndirect)
		}
	}
	// At a million nodes the UCL organization is far behind the
	// locality-exploiting torus but in the same league as the torus
	// with a random mapping — the paper's UCL/NUCL equivalence for
	// locality-free workloads (UCL's log-depth network actually beats
	// random placement's Θ(√N) average distance at scale).
	last := rows[len(rows)-1]
	if last.RelIndirect > 0.8 {
		t.Errorf("UCL relative performance at 10^6 = %g, should be far below ideal", last.RelIndirect)
	}
	if last.RelIndirect < last.RelRandom {
		t.Errorf("log-depth UCL (%g) should not be slower than random NUCL placement (%g) at scale",
			last.RelIndirect, last.RelRandom)
	}
}
