// Package stats provides the measurement primitives used throughout the
// simulator and experiment harness: streaming moments, histograms,
// least-squares line fitting (used to measure latency sensitivity from
// application message curves), and small series utilities.
package stats

import (
	"fmt"
	"math"
)

// Mean is a streaming mean/variance accumulator using Welford's
// algorithm. The zero value is ready to use.
type Mean struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the number of observations.
func (m *Mean) N() int64 { return m.n }

// Mean returns the running mean, or 0 if no observations were added.
func (m *Mean) Mean() float64 { return m.mean }

// Var returns the population variance.
func (m *Mean) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observation, or 0 if none were added.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest observation, or 0 if none were added.
func (m *Mean) Max() float64 { return m.max }

func (m *Mean) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", m.n, m.Mean(), m.StdDev(), m.min, m.max)
}

// MeanState is the exact internal state of a Mean accumulator, exposed
// so checkpoints can round-trip it bit for bit (the fields mirror the
// Welford recurrence's state, not derived quantities).
type MeanState struct {
	N                  int64
	Mean, M2, Min, Max float64
}

// State captures the accumulator's internal state.
func (m *Mean) State() MeanState {
	return MeanState{N: m.n, Mean: m.mean, M2: m.m2, Min: m.min, Max: m.max}
}

// SetState overwrites the accumulator with a previously captured state.
func (m *Mean) SetState(s MeanState) {
	m.n, m.mean, m.m2, m.min, m.max = s.N, s.Mean, s.M2, s.Min, s.Max
}

// Counter is a monotonically increasing event counter.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Addn adds n, which must be non-negative.
func (c *Counter) Addn(n int64) {
	if n < 0 {
		panic("stats: Counter.Addn with negative increment")
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// SetValue overwrites the count; used only by checkpoint restore.
func (c *Counter) SetValue(v int64) { c.v = v }

// Rate returns the count per unit of elapsed, or 0 when elapsed is 0.
func (c *Counter) Rate(elapsed float64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(c.v) / elapsed
}

// Histogram accumulates integer observations into fixed-width buckets
// with an overflow bucket at the top.
type Histogram struct {
	width   int64
	buckets []int64
	over    int64
	total   int64
	sum     int64
}

// NewHistogram creates a histogram with nbuckets buckets of the given
// width; values ≥ nbuckets·width land in the overflow bucket.
func NewHistogram(nbuckets int, width int64) *Histogram {
	if nbuckets <= 0 || width <= 0 {
		panic("stats: NewHistogram requires positive bucket count and width")
	}
	return &Histogram{width: width, buckets: make([]int64, nbuckets)}
}

// Add records one observation. Negative values are clamped to bucket 0.
func (h *Histogram) Add(v int64) {
	h.total++
	h.sum += v
	if v < 0 {
		v = 0
	}
	idx := v / h.width
	if idx >= int64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[idx]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean of all observations (including overflow).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Overflow returns the count of observations above the top bucket.
func (h *Histogram) Overflow() int64 { return h.over }

// Percentile returns an upper bound on the p-th percentile (0 < p ≤ 100)
// at bucket granularity; observations in the overflow bucket report
// the overflow boundary.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.total)))
	var seen int64
	for i, b := range h.buckets {
		seen += b
		if seen >= target {
			return (int64(i) + 1) * h.width
		}
	}
	return int64(len(h.buckets)) * h.width
}

// LinearFit is the result of an ordinary least-squares line fit
// y = Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLine computes the least-squares line through the given points.
// It returns an error when fewer than two distinct x values exist.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch: %d xs, %d ys", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs at least 2 points, got %d", n)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine requires at least two distinct x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all y equal: a horizontal line fits exactly
	}
	return fit, nil
}

// Series is an ordered collection of (x, y) points, used to carry
// figure data from the experiment drivers to printers and tests.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the first point whose x equals the
// argument exactly, and reports whether one was found.
func (s *Series) YAt(x float64) (float64, bool) {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
