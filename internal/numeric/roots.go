// Package numeric provides the two numerical routines the locality
// modeling framework depends on: quadratic root extraction and
// bracketed bisection. Both are deterministic and allocation-free on
// the happy path so they are safe to call inside tight parameter
// sweeps.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoRoot is returned when a root finder can certify that no root
// exists in the requested region.
var ErrNoRoot = errors.New("numeric: no root in the requested interval")

// Quadratic solves a·x² + b·x + c = 0 and returns the real roots in
// ascending order. It returns 0, 1, or 2 roots. The degenerate linear
// case (a == 0) is handled, returning the single root when b != 0.
// The discriminant is computed in a numerically stable fashion and the
// classic "catastrophic cancellation" case is avoided by deriving the
// smaller-magnitude root from the product of roots.
func Quadratic(a, b, c float64) []float64 {
	if a == 0 {
		if b == 0 {
			return nil
		}
		return []float64{-c / b}
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return nil
	}
	if disc == 0 {
		return []float64{-b / (2 * a)}
	}
	sq := math.Sqrt(disc)
	// q has the same sign as b to avoid cancellation in -b ± sq.
	q := -0.5 * (b + math.Copysign(sq, b))
	r1 := q / a
	r2 := c / q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return []float64{r1, r2}
}

// Bisect finds a root of f in [lo, hi] assuming f(lo) and f(hi) have
// opposite signs (or one of them is zero). It refines the bracket until
// its width falls below tol (absolute) or maxIter iterations elapse,
// and returns the midpoint of the final bracket.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, fmt.Errorf("numeric: Bisect endpoint is NaN: f(%g)=%g f(%g)=%g", lo, flo, hi, fhi)
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoRoot
	}
	for i := 0; i < maxIter; i++ {
		mid := lo + (hi-lo)/2
		fmid := f(mid)
		if fmid == 0 || hi-lo < tol {
			return mid, nil
		}
		if (fmid > 0) == (fhi > 0) {
			hi, fhi = mid, fmid
		} else {
			lo, flo = mid, fmid
		}
	}
	return lo + (hi-lo)/2, nil
}
