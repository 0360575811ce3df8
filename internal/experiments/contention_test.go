package experiments

import "testing"

func TestContentionShareGrowsWithScale(t *testing.T) {
	fc := ContentionConfig{Sizes: []float64{64, 144, 1024, 16384, 1048576}, Contexts: 1}
	rows, err := RunContentionShare(fc)
	if err != nil {
		t.Fatal(err)
	}
	// Chittor & Enbody's observation at ≤144 nodes: contention is
	// observable but does not dominate.
	small := rows[1] // N = 144
	if small.ContentionShare <= 0 {
		t.Errorf("contention at 144 nodes should be observable, got %g", small.ContentionShare)
	}
	if small.ContentionShare > 0.5 {
		t.Errorf("contention share at 144 nodes = %.0f%%, should not dominate", small.ContentionShare*100)
	}
	// Their extrapolation: far more substantial at scale.
	large := rows[len(rows)-1]
	if large.ContentionShare < 0.5 {
		t.Errorf("contention share at 10^6 nodes = %.0f%%, should dominate", large.ContentionShare*100)
	}
	// Monotone growth.
	for i := 1; i < len(rows); i++ {
		if rows[i].ContentionShare < rows[i-1].ContentionShare {
			t.Errorf("contention share fell between N=%g and N=%g", rows[i-1].Nodes, rows[i].Nodes)
		}
	}
}
