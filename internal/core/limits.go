package core

import "math"

// HopLatencyLimit is Equation 16: the value average per-hop latency Th
// approaches as communication distances grow without bound,
//
//	Th∞ = B·s / (2n).
//
// The feedback between application and network drives channel
// utilization toward (but never past) unity; at saturation each node
// sustains ρ → 1 with rm = 2/(B·kd), and the node curve then pins
// Th at B·s/(2n). The limit depends only on message size, latency
// sensitivity, and network dimension — notably not on grain, which
// controls only how fast the limit is approached.
func HopLatencyLimit(c Config) float64 {
	return c.Net.MsgSize * c.Node().Sensitivity() / (2 * float64(c.Net.Dims))
}

// LinearGainBound is the paper's central theorem made checkable: any
// gain from reducing average communication distance from dFrom to dTo
// is at most linear in the reduction factor, with the constant bounded
// by the per-hop latency range,
//
//	gain ≤ (dFrom/dTo) · Th∞.
//
// The bound holds because message latency lies between dFrom·1 + B and
// dFrom·Th∞ + B at any feasible operating point, and issue time is
// monotone in message latency.
func LinearGainBound(c Config, dFrom, dTo float64) float64 {
	if dTo <= 0 {
		return math.Inf(1)
	}
	return dFrom / dTo * HopLatencyLimit(c)
}

// HopLatencyAtDistance solves the combined model at distance d and
// returns the resulting average per-hop latency; used to plot the
// approach to HopLatencyLimit (Figure 6).
func HopLatencyAtDistance(c Config, d float64) (float64, error) {
	sol, err := c.WithDistance(d).Solve()
	if err != nil {
		return 0, err
	}
	return sol.HopLatency, nil
}

// DistanceToReachFraction returns the communication distance at which
// Th first reaches the given fraction of its limiting value, found by
// doubling search followed by bisection on distance. It returns
// +Inf if the fraction is not reached below the distance cap.
func DistanceToReachFraction(c Config, fraction float64, distanceCap float64) (float64, error) {
	target := fraction * HopLatencyLimit(c)
	d := 1.0
	var lastErr error
	for d <= distanceCap {
		th, err := HopLatencyAtDistance(c, d)
		if err != nil {
			lastErr = err
			break
		}
		if th >= target {
			// Bisect in [d/2, d].
			lo, hi := d/2, d
			for i := 0; i < 60; i++ {
				mid := (lo + hi) / 2
				th, err := HopLatencyAtDistance(c, mid)
				if err != nil {
					return 0, err
				}
				if th >= target {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi, nil
		}
		d *= 2
	}
	if lastErr != nil {
		return 0, lastErr
	}
	return math.Inf(1), nil
}
