package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, v := range []float64{1, 2, 3, 4, 5} {
		m.Add(v)
	}
	if m.N() != 5 {
		t.Errorf("N = %d, want 5", m.N())
	}
	if m.Mean() != 3 {
		t.Errorf("Mean = %g, want 3", m.Mean())
	}
	if m.Min() != 1 || m.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", m.Min(), m.Max())
	}
	if want := 2.0; math.Abs(m.Var()-want) > 1e-12 {
		t.Errorf("Var = %g, want %g", m.Var(), want)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Var() != 0 || m.StdDev() != 0 || m.N() != 0 {
		t.Error("zero-value Mean should report zeros")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(9)
	if c.Value() != 10 {
		t.Errorf("Value = %d, want 10", c.Value())
	}
	if got := c.Rate(5); got != 2 {
		t.Errorf("Rate(5) = %g, want 2", got)
	}
	if got := c.Rate(0); got != 0 {
		t.Errorf("Rate(0) = %g, want 0", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative Addn")
		}
	}()
	var c Counter
	c.Addn(-1)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	if h.Overflow() != 50 { // values 50..99
		t.Errorf("Overflow = %d, want 50", h.Overflow())
	}
	if got, want := h.Mean(), 49.5; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100, 1)
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(50); p != 50 {
		t.Errorf("P50 = %d, want 50", p)
	}
	if p := h.Percentile(99); p != 99 {
		t.Errorf("P99 = %d, want 99", p)
	}
	empty := NewHistogram(4, 1)
	if p := empty.Percentile(50); p != 0 {
		t.Errorf("empty P50 = %d, want 0", p)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Add(-7)
	if p := h.Percentile(100); p != 1 {
		t.Errorf("P100 = %d, want 1: a negative value lands in bucket 0", p)
	}
	if h.Mean() != -7 {
		t.Errorf("Mean = %g, want -7 (mean keeps true value)", h.Mean())
	}
}

func TestHistogramBadConstruction(t *testing.T) {
	for _, tc := range []struct{ n, w int64 }{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%d,%d) should panic", tc.n, tc.w)
				}
			}()
			NewHistogram(int(tc.n), tc.w)
		}()
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.25*x - 7
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3.25) > 1e-12 || math.Abs(fit.Intercept+7) > 1e-12 {
		t.Errorf("fit = %+v, want slope 3.25 intercept -7", fit)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %g, want ~1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+5+rng.NormFloat64())
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.01 {
		t.Errorf("Slope = %g, want ≈2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g, want > 0.99", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for vertical line")
	}
}

func TestFitLineHorizontal(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 4 || fit.R2 != 1 {
		t.Errorf("horizontal fit = %+v", fit)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(3, 30)
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Errorf("YAt(2) = %g,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt(99) should report not found")
	}
}
