// Package topology implements the geometry of k-ary n-dimensional
// torus (k-ary n-cube) interconnection networks: node coordinates, hop
// distances under minimal routing, e-cube (dimension-ordered) routes,
// the paper's Equation 17 for random-mapping average distance, and the
// torus neighbor graph used by the synthetic application.
//
// Nodes are identified by integers in [0, N) with N = k^n; node id
// encodes coordinates in base k, dimension 0 least significant.
package topology

import (
	"fmt"
)

// Torus describes a k-ary n-dimensional torus with a pair of
// unidirectional channels (one per direction) in every dimension
// between adjacent nodes.
type Torus struct {
	k     int // radix (side length), ≥ 2
	n     int // dimensions, ≥ 1
	total int // k^n nodes
}

// New constructs a Torus, validating that the radix is at least 2, the
// dimension at least 1, and the total node count representable.
func New(k, n int) (*Torus, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: radix k = %d, need k ≥ 2", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: dimension n = %d, need n ≥ 1", n)
	}
	total := 1
	for i := 0; i < n; i++ {
		if total > (1<<31)/k {
			return nil, fmt.Errorf("topology: %d-ary %d-cube has too many nodes", k, n)
		}
		total *= k
	}
	return &Torus{k: k, n: n, total: total}, nil
}

// MustNew is New but panics on error; for tests and literals with
// known-good parameters.
func MustNew(k, n int) *Torus {
	t, err := New(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the radix.
func (t *Torus) K() int { return t.k }

// N returns the number of dimensions.
func (t *Torus) N() int { return t.n }

// Nodes returns the total node count k^n.
func (t *Torus) Nodes() int { return t.total }

// Coords decomposes a node id into its n per-dimension coordinates.
func (t *Torus) Coords(id int) []int {
	t.checkNode(id)
	c := make([]int, t.n)
	for i := 0; i < t.n; i++ {
		c[i] = id % t.k
		id /= t.k
	}
	return c
}

// ID composes a node id from per-dimension coordinates.
func (t *Torus) ID(coords []int) int {
	if len(coords) != t.n {
		panic(fmt.Sprintf("topology: ID got %d coordinates for %d dimensions", len(coords), t.n))
	}
	id := 0
	for i := t.n - 1; i >= 0; i-- {
		c := coords[i]
		if c < 0 || c >= t.k {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d)", c, t.k))
		}
		id = id*t.k + c
	}
	return id
}

func (t *Torus) checkNode(id int) {
	if id < 0 || id >= t.total {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", id, t.total))
	}
}

// dimDelta returns the signed minimal offset from a to b along one
// dimension: the number of hops in the positive direction if positive,
// negative direction if negative. Ties (distance exactly k/2) resolve
// to the positive direction.
func (t *Torus) dimDelta(a, b int) int {
	d := ((b-a)%t.k + t.k) % t.k // forward distance in [0, k)
	if 2*d <= t.k {
		return d
	}
	return d - t.k
}

// dimDistance returns the minimal hop count between coordinates a and b
// along one dimension.
func (t *Torus) dimDistance(a, b int) int {
	d := t.dimDelta(a, b)
	if d < 0 {
		return -d
	}
	return d
}

// Diameter returns the maximum hop distance between any two nodes:
// n·⌊k/2⌋. Useful for sizing distance-keyed tables.
func (t *Torus) Diameter() int { return t.n * (t.k / 2) }

// Distance returns the minimal hop count between two nodes.
func (t *Torus) Distance(a, b int) int {
	t.checkNode(a)
	t.checkNode(b)
	sum := 0
	for i := 0; i < t.n; i++ {
		sum += t.dimDistance(a%t.k, b%t.k)
		a /= t.k
		b /= t.k
	}
	return sum
}

// Hop identifies one directed channel traversal: from node From, along
// dimension Dim, in direction Dir (+1 or −1), arriving at node To.
type Hop struct {
	From, To int
	Dim      int
	Dir      int
}

// Neighbor returns the node adjacent to id along dimension dim in
// direction dir (+1 or −1), with wraparound.
func (t *Torus) Neighbor(id, dim, dir int) int {
	t.checkNode(id)
	if dim < 0 || dim >= t.n {
		panic(fmt.Sprintf("topology: dimension %d out of range [0,%d)", dim, t.n))
	}
	if dir != 1 && dir != -1 {
		panic(fmt.Sprintf("topology: direction %d must be ±1", dir))
	}
	// Pure arithmetic, so unlike Coords/ID it does not allocate.
	stride := 1
	for i := 0; i < dim; i++ {
		stride *= t.k
	}
	c := (id / stride) % t.k
	nc := ((c+dir)%t.k + t.k) % t.k
	return id + (nc-c)*stride
}

// Route computes the e-cube (dimension-ordered, minimal) route from src
// to dst: all hops in dimension 0 first, then dimension 1, and so on.
// The returned slice is empty when src == dst.
func (t *Torus) Route(src, dst int) []Hop {
	t.checkNode(src)
	t.checkNode(dst)
	var hops []Hop
	cur := src
	a, b := src, dst
	for dim := 0; dim < t.n; dim++ {
		delta := t.dimDelta(a%t.k, b%t.k)
		dir := 1
		if delta < 0 {
			dir = -1
			delta = -delta
		}
		for s := 0; s < delta; s++ {
			next := t.Neighbor(cur, dim, dir)
			hops = append(hops, Hop{From: cur, To: next, Dim: dim, Dir: dir})
			cur = next
		}
		a /= t.k
		b /= t.k
	}
	return hops
}

// Neighbors returns the 2n torus-graph neighbors of a node (one per
// direction per dimension), deduplicated when k == 2 makes the two
// directions coincide.
func (t *Torus) Neighbors(id int) []int {
	t.checkNode(id)
	var out []int
	seen := map[int]bool{}
	for dim := 0; dim < t.n; dim++ {
		for _, dir := range []int{1, -1} {
			nb := t.Neighbor(id, dim, dir)
			if nb != id && !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		}
	}
	return out
}

// perDimAvgDistance returns the average minimal distance along one
// dimension between two independently uniform coordinates (self pairs
// included): k/4 for even k, (k²−1)/(4k) for odd k.
func perDimAvgDistance(k int) float64 {
	if k%2 == 0 {
		return float64(k) / 4
	}
	return float64(k*k-1) / float64(4*k)
}

// RandomAvgDistance returns the expected hop distance between a
// uniformly random ordered pair of *distinct* nodes — the paper's
// Equation 17. For even radix this is exactly
//
//	d = n·k^(n+1) / (4·(k^n − 1))
//
// and the implementation generalizes to odd radix via the exact
// per-dimension average.
func (t *Torus) RandomAvgDistance() float64 {
	nodes := float64(t.total)
	return float64(t.n) * perDimAvgDistance(t.k) * nodes / (nodes - 1)
}

// ExactRandomAvgDistance computes the same quantity by enumerating all
// coordinate offsets; used to cross-check RandomAvgDistance in tests
// and available for callers who prefer enumeration.
func (t *Torus) ExactRandomAvgDistance() float64 {
	// Distance distribution is translation invariant: average distance
	// from node 0 to every other node equals the all-pairs average.
	total := 0
	for v := 0; v < t.total; v++ {
		if v != 0 {
			total += t.Distance(0, v)
		}
	}
	return float64(total) / float64(t.total-1)
}

// AvgNeighborDistance returns the mean hop distance between
// graph-adjacent thread pairs of the torus communication graph when
// thread i is placed on processor place(i). This is the operational
// "average communication distance d" for the synthetic application.
func (t *Torus) AvgNeighborDistance(place func(thread int) int) float64 {
	var total, count int
	for u := 0; u < t.total; u++ {
		pu := place(u)
		for _, v := range t.Neighbors(u) {
			total += t.Distance(pu, place(v))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// ChannelCount returns the number of unidirectional network channels:
// 2 directions × n dimensions × N nodes (wraparound links included).
// When k == 2 the two directions connect the same node pair but remain
// physically distinct channels.
func (t *Torus) ChannelCount() int { return 2 * t.n * t.total }

// BisectionChannels returns the number of unidirectional channels
// crossing a bisection of the machine along dimension n−1, for even k:
// 2 channels per direction per cut position × k^(n−1) rows × 2 cuts
// (the torus wraps, so a bisection severs two rings of links).
func (t *Torus) BisectionChannels() int {
	per := t.total / t.k // k^(n-1)
	return 4 * per
}

// String implements fmt.Stringer.
func (t *Torus) String() string {
	return fmt.Sprintf("%d-ary %d-cube (%d nodes)", t.k, t.n, t.total)
}
