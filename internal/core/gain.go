package core

import (
	"fmt"
	"math"
)

// RandomMappingDistance is Equation 17 generalized to real-valued
// machine sizes: the expected hop distance between distinct uniformly
// random nodes of an N-node k-ary n-dimensional torus with k = N^(1/n),
//
//	d = n·k^(n+1) / (4·(k^n − 1)) = (n·k/4) · N/(N−1).
//
// This is the communication distance experienced when physical
// locality is absent or ignored during thread placement.
func RandomMappingDistance(dims int, nodes float64) float64 {
	if nodes <= 1 {
		return 0
	}
	k := math.Pow(nodes, 1/float64(dims))
	return float64(dims) * k / 4 * nodes / (nodes - 1)
}

// GainResult reports the expected gain from exploiting physical
// locality at one machine size: the ratio of transaction issue rates
// between the ideal mapping (every communication one hop) and the
// random mapping (Equation 17 distance).
type GainResult struct {
	Nodes          float64
	IdealDistance  float64
	RandomDistance float64
	Ideal          Solution
	Random         Solution
	// Gain is Random.IssueTime / Ideal.IssueTime = rt_ideal/rt_random.
	Gain float64
}

// ExpectedGain evaluates the combined model twice — once with the
// ideal single-hop mapping and once with the random-mapping distance
// for an N-node machine — and returns the performance ratio
// (Section 4.2). The configuration's own D field is ignored.
func ExpectedGain(c Config, nodes float64) (GainResult, error) {
	if nodes < 2 {
		return GainResult{}, fmt.Errorf("core: ExpectedGain needs at least 2 nodes, got %g", nodes)
	}
	dRandom := RandomMappingDistance(c.Net.Dims, nodes)
	// Both points are plain solves: a bisection costs about a
	// microsecond, so a memo would save nothing a caller could see.
	ideal, err := c.WithDistance(1).Solve()
	if err != nil {
		return GainResult{}, fmt.Errorf("core: ideal-mapping solve: %w", err)
	}
	random, err := c.WithDistance(dRandom).Solve()
	if err != nil {
		return GainResult{}, fmt.Errorf("core: random-mapping solve: %w", err)
	}
	return GainResult{
		Nodes:          nodes,
		IdealDistance:  1,
		RandomDistance: dRandom,
		Ideal:          ideal,
		Random:         random,
		Gain:           random.IssueTime / ideal.IssueTime,
	}, nil
}

// GainSweep evaluates ExpectedGain at each machine size.
func GainSweep(c Config, sizes []float64) ([]GainResult, error) {
	out := make([]GainResult, 0, len(sizes))
	for _, n := range sizes {
		g, err := ExpectedGain(c, n)
		if err != nil {
			return nil, fmt.Errorf("core: gain sweep at N=%g: %w", n, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// LogSizes returns pointsPerDecade machine sizes per decade spanning
// [lo, hi] on a logarithmic grid, for plotting gain and Th curves.
func LogSizes(lo, hi float64, pointsPerDecade int) []float64 {
	if lo <= 0 || hi < lo || pointsPerDecade < 1 {
		return nil
	}
	var out []float64
	step := math.Pow(10, 1/float64(pointsPerDecade))
	for v := lo; v <= hi*(1+1e-12); v *= step {
		out = append(out, v)
	}
	return out
}
