// Package netsim is a flit-level simulator of packet-switched, wormhole
// routed k-ary n-dimensional torus networks, mirroring the interconnect
// of the architecture in the paper's Section 3: a pair of unidirectional
// channels between neighboring switches in every dimension, single-cycle
// base delay through a switch, e-cube (dimension-ordered) routing, a
// moderate amount of buffering per switch input, and one flit crossing
// a channel per network cycle.
//
// Because minimal routing on torus rings is cyclic, each physical
// channel carries two virtual channels with the standard dateline
// discipline: a worm travels on VC0 within a ring until it crosses the
// wraparound edge (the dateline), after which it uses VC1. Combined
// with dimension-ordered routing this makes the network provably
// deadlock-free.
//
// The simulator is synchronous: Step advances every switch by one
// network cycle using a two-phase (decide, commit) update so results
// are independent of iteration order. Messages destined for their own
// source node bypass the network and deliver after a configurable local
// latency; they are excluded from network traffic statistics, matching
// the paper's convention that nodes never send network messages to
// themselves.
//
// Per-switch state lives in flat structure-of-arrays slices indexed by
// router, and Step visits only the routers of a two-level active bitmap,
// in ascending order, so a mostly-idle fabric costs O(active switches)
// per cycle and an untouched switch costs no resident memory (large
// zeroed slices are backed by untouched pages). An input buffer's flit
// ring is lent from one slab per network on the buffer's first push and
// returned when its router leaves the active set, so ring memory
// follows the active routers, not every buffer a worm ever crossed.
// Listing the active routers needs no sort, and moving a flit reads a
// per-port neighbor table instead of dividing out coordinates. Each
// head is routed once per hop, when it becomes the front of its input,
// and a router's decide works from three one-word masks (occupied
// inputs, held outputs, inputs feeding a held output) to arbitrate only
// the outputs that can move a flit, so a router has at most 64 inputs
// and a torus at most 15 dimensions. All of this is behavior-preserving:
// see DESIGN.md §5i for the parity argument.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"locality/internal/stats"
	"locality/internal/topology"
)

// Message is one network packet. Callers set Src, Dst, Size and
// Payload; the network fills in the accounting fields.
type Message struct {
	Src, Dst int
	// Size is the message length in flits (8-bit channel flits in the
	// reference architecture). Must be ≥ 1.
	Size int
	// Payload is opaque to the network.
	Payload any

	// EnqueuedAt is when Send accepted the message (N-cycles).
	EnqueuedAt int64
	// InjectedAt is when the head flit entered the source switch.
	InjectedAt int64
	// DeliveredAt is when the tail flit reached the destination node.
	DeliveredAt int64
	// Hops is the number of switch-to-switch channels traversed.
	Hops int

	remaining int // flits not yet emitted by the injector
	curDim    int // dimension the worm is currently traveling (-1 before first hop)
	vcClass   int // 0 before the dateline in curDim, 1 after
}

// Latency returns the end-to-end message latency including source
// queueing, in network cycles.
func (m *Message) Latency() int64 { return m.DeliveredAt - m.EnqueuedAt }

// NetworkLatency returns the latency from first flit entering the
// switch fabric to tail delivery, excluding source queueing.
func (m *Message) NetworkLatency() int64 { return m.DeliveredAt - m.InjectedAt }

// flit is one channel-width unit of a message in flight.
type flit struct {
	msg       *Message
	seq       int   // 0-based flit index; 0 is the head
	arrivedAt int64 // cycle the flit entered its current buffer
}

func (f flit) isHead() bool { return f.seq == 0 }
func (f flit) isTail() bool { return f.seq == f.msg.Size-1 }

// fifo is a bounded flit queue (one switch input buffer): an 8-byte
// header over a ring of depth slots that the network lends from its
// slab. Offset 0 is the slab's sentinel ring, never lent, so a zeroed
// header is an empty buffer without a ring and the millions of
// never-touched buffers of a large mostly-idle fabric cost only their
// untouched header pages. head and count fit 16 bits because New bounds
// the depth at 65,535. The depth and slab are owned by the network and
// passed in where needed.
type fifo struct {
	off   int32  // slab offset of the lent ring, 0 for none
	head  uint16 // ring slot of the front flit
	count uint16 // buffered flits
}

func (q *fifo) full(depth int) bool { return int(q.count) == depth }
func (q *fifo) empty() bool         { return q.count == 0 }

// window returns q's ring: the depth slab slots from its offset.
func (q *fifo) window(slab []flit, depth int) []flit {
	return slab[q.off : int(q.off)+depth : int(q.off)+depth]
}

// push appends f to q, which must hold a ring: a push to a ringless
// buffer writes the sentinel ring, which Check verifies stays zero.
func (q *fifo) push(slab []flit, f flit, depth int) {
	if int(q.count) == depth {
		panic("netsim: push to full buffer")
	}
	i := int(q.head) + int(q.count)
	if i >= depth {
		i -= depth
	}
	slab[int(q.off)+i] = f
	q.count++
}

func (q *fifo) peek(slab []flit) flit {
	if q.empty() {
		panic("netsim: peek at empty buffer")
	}
	return slab[int(q.off)+int(q.head)]
}

// pop removes the front flit, zeroing its slot so the ring does not
// keep a delivered message reachable.
func (q *fifo) pop(slab []flit, depth int) flit {
	f := q.peek(slab)
	slab[int(q.off)+int(q.head)] = flit{}
	if q.head++; int(q.head) == depth {
		q.head = 0
	}
	q.count--
	return f
}

// rings lends the input buffers' flit rings out of one slab. A buffer
// borrows a ring on its first push, and compactActive returns the rings
// of a router that leaves the active set, so the slab holds at most the
// peak number of rings lent at once. slab[:depth] is the sentinel ring
// at offset 0: never lent, always zero.
type rings struct {
	slab  []flit
	free  []int32 // offsets of returned rings, lent again last in, first out
	depth int
	limit int // slots of the sentinel plus one ring per buffer
}

func newRings(depth, buffers int) rings {
	return rings{slab: make([]flit, depth), depth: depth, limit: (buffers + 1) * depth}
}

// lend gives the ringless buffer q a ring: the last one returned, or
// else a fresh one off the slab's end. A full slab grows by a quarter or
// 64 rings, whichever is more, up to limit: doubling would leave up to
// half of a large slab idle.
func (r *rings) lend(q *fifo) {
	if n := len(r.free); n > 0 {
		q.off = r.free[n-1]
		r.free = r.free[:n-1]
		return
	}
	off := len(r.slab)
	if off+r.depth > cap(r.slab) {
		grow := max(off/4/r.depth, 64) * r.depth
		s := make([]flit, off, min(off+grow, r.limit))
		copy(s, r.slab)
		r.slab = s
	}
	r.slab = r.slab[:off+r.depth]
	q.off = int32(off)
}

// reclaim takes back the rings of a drained router's buffers, leaving
// their headers zero. Every slot of an empty ring is already zero.
func (r *rings) reclaim(bufs []fifo) {
	for i := range bufs {
		if bufs[i].off != 0 {
			r.free = append(r.free, bufs[i].off)
			bufs[i] = fifo{}
		}
	}
}

// reset takes back every ring, keeping the slab's capacity.
func (r *rings) reset() {
	clear(r.slab)
	r.slab = r.slab[:r.depth]
	r.free = r.free[:0]
}

// Config parameterizes the network.
type Config struct {
	Topo *topology.Torus
	// BufferDepth is the per-virtual-channel flit buffer depth at each
	// switch input.
	BufferDepth int
	// LocalDelay is the delivery latency for src == dst messages,
	// which bypass the fabric (N-cycles). Defaults to 1 when zero.
	LocalDelay int
}

// DeliveryFunc receives each message when its tail flit arrives.
type DeliveryFunc func(now int64, msg *Message)

// move is one decided flit transfer for the two-phase update: the
// front flit of router's input buffer leaves through virtual output
// outKey, and acquire marks a head flit granted that output this cycle.
// commit derives everything else from the popped flit and nbr. A byte
// holds any input or key (nin ≤ 61, see MaxDims).
type move struct {
	router        int32
	input, outKey uint8
	acquire       bool
}

// Network simulates the whole fabric.
//
// Port/buffer indexing at each router, for a topology with n dims:
//
//	directional physical ports: o ∈ [0, 2n), o = 2·dim + (dir<0 ? 1 : 0)
//	virtual input buffers:      o·2 + vc for vc ∈ {0, 1}
//	injection input buffer:     4n (single buffer, no VC)
//	virtual output keys:        o·2 + vc, ejection key 4n
//
// Router state is stored structure-of-arrays: per-key state for router
// v lives at index v·nin+key (nin = 4n+1 inputs/keys per router) and
// per-port state at v·ports+o. The flat slices are allocated once in
// New; because a fresh large slice is zeroed pages the OS has not
// materialized, memory residency tracks the routers actually touched.
// Flit storage is the rings slab, lent to the active routers' buffers.
type Network struct {
	cfg   Config
	topo  *topology.Torus
	dims  int
	k     int
	ports int // directional physical ports per router (2·dims)
	nin   int // input buffers / virtual output keys per router (2·ports+1)
	nodes int

	// in[v·nin+key] is router v's input buffer for key; its flits live
	// in a ring lent from rings.
	in    []fifo
	rings rings
	// owner[v·nin+key] is the message holding virtual output key, or nil.
	owner []*Message
	// ownerInput[v·nin+key] is the input buffer index feeding that worm.
	ownerInput []uint8
	// lastGranted[v·nin+key] rotates arbitration among inputs for a key.
	lastGranted []uint8
	// lastVC[v·ports+o] rotates the physical channel between its two VCs.
	lastVC []uint8
	// nbr[v·ports+o] is the router across directional port o of v.
	nbr []int32

	// occ[v] is a bitmask over router v's input buffers: bit idx is set
	// iff in[v·nin+idx] is non-empty, so occ[v] == 0 iff the router
	// holds no flits. One word covers every legal topology (nin = 4n+1
	// ≤ 61 for n ≤ MaxDims).
	occ []uint64
	// held[v] mirrors owner the same way: bit key is set iff router v's
	// virtual output key has an owner.
	held []uint64
	// feed[v] marks the inputs feeding a held output: bit ownerInput[key]
	// for every held key. By wormhole order an occupied fed input fronts
	// a body flit of the worm holding that output, and every other
	// occupied input fronts a head.
	feed []uint64
	// reqKey[v·nin+idx] is the virtual output key input idx's worm uses
	// at router v: for an occupied unfed input, the key its front head
	// requests, and for a fed input, the held key it feeds. It is
	// written once per hop, when a head becomes the front of an unfed
	// input, so a waiting head is not re-routed every cycle.
	reqKey []int8

	// Active set: router v is active iff it holds buffered flits or
	// queued injections. Bit v&63 of active[v>>6] marks it, and bit w&63
	// of activeSum[w>>6] marks a non-zero active[w], so listing the set
	// costs O(active + N/4096). worklist is that list in ascending
	// router order — the dense sweep's order — rebuilt at each Step.
	active      []uint64
	activeSum   []uint64
	activeCount int
	worklist    []int32
	// forceDense pins every router to the active set permanently,
	// restoring the pre-worklist dense sweep. Behavior is identical by
	// construction (idle routers decide nothing and mutate nothing);
	// differential tests and benchmarks use it as the reference.
	forceDense bool

	// moves is the decide/commit scratch buffer, reused across cycles.
	moves []move

	// injectQ[v] holds messages waiting to enter the fabric at node v,
	// the one being injected first.
	injectQ [][]*Message
	// queued counts messages across all injection queues (partially
	// injected included), kept so Quiesced is O(1).
	queued int
	local  []localEntry
	now    int64

	deliver DeliveryFunc

	// lastProgress is the most recent cycle on which any flit entered,
	// moved within, or left the fabric (or a local message delivered).
	// The deadlock watchdog compares it against Now when traffic is in
	// flight.
	lastProgress int64

	// Lifetime flit conservation counters (never reset): every flit
	// accepted into an injection buffer, and every flit ejected at a
	// destination. Check verifies injected == ejected + in-flight.
	flitsIn  int64
	flitsOut int64

	// Statistics (since the last ResetStats).
	statsSince     int64
	injected       stats.Counter
	deliveredCount stats.Counter
	flitHops       stats.Counter // flit-channel traversals (fabric only)
	latency        stats.Mean    // end-to-end incl. source queueing
	netLatency     stats.Mean    // fabric-only latency
	hops           stats.Mean
	sizes          stats.Mean
}

type localEntry struct {
	msg *Message
	due int64
}

// MaxDims is the most torus dimensions a network accepts: a router's
// nin = 4n+1 inputs (and virtual output keys) must fit one 64-bit mask.
const MaxDims = 15

// New validates the configuration and builds an idle network.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if n := cfg.Topo.N(); n > MaxDims {
		return nil, fmt.Errorf("netsim: %d-dimensional torus, at most %d dimensions (a router's 4n+1 inputs must fit a 64-bit mask)", n, MaxDims)
	}
	if cfg.BufferDepth < 1 {
		return nil, fmt.Errorf("netsim: buffer depth %d, must be ≥ 1", cfg.BufferDepth)
	}
	if cfg.BufferDepth > math.MaxUint16 {
		return nil, fmt.Errorf("netsim: buffer depth %d, at most %d (a buffer counts its flits in 16 bits)", cfg.BufferDepth, math.MaxUint16)
	}
	if cfg.LocalDelay == 0 {
		cfg.LocalDelay = 1
	}
	if cfg.LocalDelay < 0 {
		return nil, fmt.Errorf("netsim: negative local delay %d", cfg.LocalDelay)
	}
	n := cfg.Topo.Nodes()
	dims := cfg.Topo.N()
	ports := 2 * dims
	nin := 2*ports + 1
	// Ring offsets are int32: the sentinel and one ring per buffer must
	// fit below 2^31 flits.
	if n*nin+1 > math.MaxInt32/cfg.BufferDepth {
		return nil, fmt.Errorf("netsim: %d buffers of %d flits, more than the ring slab's 2^31 flits", n*nin, cfg.BufferDepth)
	}
	nw := &Network{
		cfg:         cfg,
		topo:        cfg.Topo,
		dims:        dims,
		k:           cfg.Topo.K(),
		ports:       ports,
		nin:         nin,
		nodes:       n,
		in:          make([]fifo, n*nin),
		rings:       newRings(cfg.BufferDepth, n*nin),
		owner:       make([]*Message, n*nin),
		ownerInput:  make([]uint8, n*nin),
		lastGranted: make([]uint8, n*nin),
		lastVC:      make([]uint8, n*ports),
		nbr:         make([]int32, n*ports),
		reqKey:      make([]int8, n*nin),
		injectQ:     make([][]*Message, n),
	}
	// The three masks share one allocation, as do the two bitmap levels:
	// every allocation counts in the set-up of a small machine.
	masks := make([]uint64, 3*n)
	nw.occ, nw.held, nw.feed = masks[:n:n], masks[n:2*n:2*n], masks[2*n:]
	words := (n + 63) >> 6
	bitmap := make([]uint64, words+(n+4095)>>12)
	nw.active, nw.activeSum = bitmap[:words:words], bitmap[words:]
	// Fill nbr by walking each dimension's coordinate c alongside v (j
	// counts v's position within a run of stride routers sharing c), so
	// the table costs no division per entry.
	k := nw.k
	for dim, stride := 0, 1; dim < dims; dim, stride = dim+1, stride*k {
		wrap := (k - 1) * stride
		for v, c, j := 0, 0, 0; v < n; v++ {
			plus, minus := v+stride, v-stride
			if c == k-1 {
				plus = v - wrap
			}
			if c == 0 {
				minus = v + wrap
			}
			nw.nbr[v*ports+2*dim], nw.nbr[v*ports+2*dim+1] = int32(plus), int32(minus)
			if j++; j == stride {
				if j, c = 0, c+1; c == k {
					c = 0
				}
			}
		}
	}
	return nw, nil
}

// SetDelivery installs the delivery callback.
func (nw *Network) SetDelivery(fn DeliveryFunc) { nw.deliver = fn }

// Now returns the current network cycle.
func (nw *Network) Now() int64 { return nw.now }

// ejectKey is the virtual output key of the ejection port.
func (nw *Network) ejectKey() int { return 2 * nw.ports }

// injectIn is the input buffer index of the injection port.
func (nw *Network) injectIn() int { return 2 * nw.ports }

// activate adds router v to the active set.
func (nw *Network) activate(v int) {
	w := v >> 6
	if nw.active[w]&(1<<(v&63)) != 0 {
		return
	}
	nw.active[w] |= 1 << (v & 63)
	nw.activeSum[w>>6] |= 1 << (w & 63)
	nw.activeCount++
}

// deactivate removes an active router v from the active set.
func (nw *Network) deactivate(v int) {
	w := v >> 6
	if nw.active[w] &^= 1 << (v & 63); nw.active[w] == 0 {
		nw.activeSum[w>>6] &^= 1 << (w & 63)
	}
	nw.activeCount--
}

// appendActive appends the active routers to dst in ascending order.
func (nw *Network) appendActive(dst []int32) []int32 {
	for s, sum := range nw.activeSum {
		for ; sum != 0; sum &= sum - 1 {
			w := s<<6 + bits.TrailingZeros64(sum)
			for m := nw.active[w]; m != 0; m &= m - 1 {
				dst = append(dst, int32(w<<6+bits.TrailingZeros64(m)))
			}
		}
	}
	return dst
}

// forceDenseSweep marks every router permanently active, restoring the
// pre-worklist dense per-cycle sweep for differential tests and
// benchmark baselines. Simulated behavior is identical; only the
// per-cycle iteration cost changes.
func (nw *Network) forceDenseSweep() {
	nw.forceDense = true
	for v := 0; v < nw.nodes; v++ {
		nw.activate(v)
	}
}

// ActiveRouters returns the current size of the active-router set
// (routers holding buffered flits or queued injections). O(1).
func (nw *Network) ActiveRouters() int { return nw.activeCount }

// Send enqueues a message for injection at its source node. Messages
// with src == dst bypass the fabric and deliver after LocalDelay.
func (nw *Network) Send(msg *Message) error {
	if msg.Size < 1 {
		return fmt.Errorf("netsim: message size %d, must be ≥ 1", msg.Size)
	}
	if msg.Src < 0 || msg.Src >= nw.nodes || msg.Dst < 0 || msg.Dst >= nw.nodes {
		return fmt.Errorf("netsim: src %d or dst %d out of range [0,%d)", msg.Src, msg.Dst, nw.nodes)
	}
	msg.EnqueuedAt = nw.now
	msg.remaining = msg.Size
	msg.curDim = -1
	msg.vcClass = 0
	if msg.Src == msg.Dst {
		msg.InjectedAt = nw.now
		nw.local = append(nw.local, localEntry{msg: msg, due: nw.now + int64(nw.cfg.LocalDelay)})
		return nil
	}
	nw.injectQ[msg.Src] = append(nw.injectQ[msg.Src], msg)
	nw.queued++
	nw.activate(msg.Src)
	return nil
}

// outputPortFor returns the directional physical port the head flit
// requests at router v under e-cube routing (lowest dimension first,
// minimal direction, ties toward positive), or the ejection key when v
// is the destination.
func (nw *Network) outputPortFor(v, dst int) (port int, eject bool) {
	if v == dst {
		return 0, true
	}
	a, b := v, dst
	for dim := 0; dim < nw.dims; dim++ {
		ca, cb := a%nw.k, b%nw.k
		if ca != cb {
			d := ((cb-ca)%nw.k + nw.k) % nw.k
			switch {
			case 2*d < nw.k:
				return 2 * dim, false
			case 2*d > nw.k:
				return 2*dim + 1, false
			default:
				// Exactly halfway around the ring: both directions are
				// minimal. Split ties deterministically by the parity
				// of the current coordinate so neither direction's
				// channels carry systematically more load (coordinates
				// at a tie are uniform over the ring). The tie exists
				// only on the first hop in a dimension, so the route
				// stays consistent and any two messages between the
				// same endpoints take the same path.
				if ca%2 == 0 {
					return 2 * dim, false
				}
				return 2*dim + 1, false
			}
		}
		a /= nw.k
		b /= nw.k
	}
	return 0, true
}

// wraps reports whether the hop from router v through port o to next
// crosses the ring's dateline (coordinate k−1 → 0 in the positive
// direction, 0 → k−1 in the negative). Only the wrap edge moves a
// positive hop (o even) to a lower router or a negative one to a
// higher router, for every k ≥ 2.
func wraps(v, o, next int) bool { return (o&1 == 0) == (next < v) }

// vcFor returns the virtual channel a head flit must use on port o:
// VC0 when entering a new dimension, its accumulated class otherwise.
func vcFor(msg *Message, o int) int {
	if msg.curDim != o/2 {
		return 0
	}
	return msg.vcClass
}

// Step advances the network one cycle.
func (nw *Network) Step() {
	nw.worklist = nw.appendActive(nw.worklist[:0])
	nw.decide()
	nw.commit()
	nw.compactActive()
	nw.stepLocal()
	nw.now++
}

// Run advances the network by cycles steps.
func (nw *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		nw.Step()
	}
}

// stepInjection streams the next flit of router v's queued messages
// into its injection buffer, at most one flit per cycle. decide calls
// it for each active router (Send activates the source) after reading
// the router's occupancy, so a flit that enters an empty buffer cannot
// move before the next cycle. Injection at v changes nothing another
// router's decide reads, so interleaving the two per router yields the
// moves of injecting everywhere first.
func (nw *Network) stepInjection(v int) {
	q := nw.injectQ[v]
	in := &nw.in[v*nw.nin+nw.injectIn()]
	depth := nw.cfg.BufferDepth
	if in.full(depth) {
		return
	}
	msg := q[0]
	seq := msg.Size - msg.remaining
	if seq == 0 {
		msg.InjectedAt = nw.now
		nw.injected.Inc()
		nw.sizes.Add(float64(msg.Size))
		if in.empty() {
			nw.reqKey[v*nw.nin+nw.injectIn()] = nw.requestKey(v, msg)
		}
	}
	if in.off == 0 {
		nw.rings.lend(in)
	}
	in.push(nw.rings.slab, flit{msg: msg, seq: seq, arrivedAt: nw.now}, depth)
	nw.occ[v] |= 1 << nw.injectIn()
	nw.flitsIn++
	nw.lastProgress = nw.now
	msg.remaining--
	if msg.remaining == 0 {
		// Shift the queue down in place, so its backing array is
		// reused by later sends, and nil the vacated last slot so the
		// array does not keep the message reachable.
		copy(q, q[1:])
		q[len(q)-1] = nil
		nw.injectQ[v] = q[:len(q)-1]
		nw.queued--
	}
}

// decide injects at each active router and computes at most one flit
// transfer per physical channel (and per ejection port) based on
// cycle-start state, appending to the reusable moves scratch buffer.
// Routers with no buffered flits can produce no transfer and mutate no
// arbitration state, so iterating the ascending worklist yields exactly
// the moves of a dense sweep, in the same order.
//
// Each router first works out, from its masks alone, the virtual
// outputs that can move a flit this cycle: held outputs whose feeding
// input is ready, and free outputs some ready head requests. It then
// walks only those, in ascending port order with the VC rotation and
// round-robin rotors, so every output it skips is one that could not
// have granted a transfer, and a skipped output mutates nothing.
func (nw *Network) decide() {
	nw.moves = nw.moves[:0]
	nin, ports, depth := nw.nin, nw.ports, nw.cfg.BufferDepth
	ek := nw.ejectKey()
	for _, v32 := range nw.worklist {
		v := int(v32)
		// A flit cannot move in the cycle it arrives. Commit's arrivals
		// come after decide, so only this cycle's injection could be so
		// new, and only as the front of a buffer that was empty: the
		// occupancy read before injecting leaves it out.
		ready := nw.occ[v]
		if len(nw.injectQ[v]) != 0 {
			nw.stepInjection(v)
		}
		if ready == 0 {
			continue
		}
		base := v * nin
		keys := nw.reqKey[base : base+nin : base+nin]
		held, heads := nw.held[v], ready&^nw.feed[v]
		// A ready fed input moves a body flit through the output it
		// feeds; a ready head can take its requested output only if no
		// other worm holds it.
		var moving, wanted uint64
		for m := ready &^ heads; m != 0; m &= m - 1 {
			moving |= 1 << (keys[bits.TrailingZeros64(m)] & 63)
		}
		for m := heads; m != 0; m &= m - 1 {
			wanted |= 1 << (keys[bits.TrailingZeros64(m)] & 63)
		}
		cand := moving | wanted&^held
		// Directional physical channels in ascending port order: the two
		// keys o·2 and o·2+1 of port o share the mask, and a port grants
		// its first VC in rotation that is a candidate with room
		// downstream.
		for c := cand &^ (1 << ek); c != 0; {
			o := bits.TrailingZeros64(c) >> 1
			c &^= 3 << (2 * o)
			p := v*ports + o
			next := int(nw.nbr[p]) * nin
			firstVC := 1 - int(nw.lastVC[p])
			for attempt := 0; attempt < 2; attempt++ {
				vc := firstVC ^ attempt
				key := o*2 + vc
				if cand>>key&1 != 0 && !nw.in[next+key].full(depth) {
					nw.grant(v, key, held, heads)
					nw.lastVC[p] = uint8(vc)
					break
				}
			}
		}
		// The node sinks one flit per cycle unconditionally.
		if cand>>ek&1 != 0 {
			nw.grant(v, ek, held, heads)
		}
	}
}

// grant appends the transfer through candidate output key of router v.
// A held key moves its worm's next flit from the input feeding it. A
// free key goes round-robin to the first head requesting it after the
// input granted it last.
func (nw *Network) grant(v, key int, held, heads uint64) {
	base := v * nw.nin
	if held>>key&1 != 0 {
		nw.moves = append(nw.moves, move{router: int32(v), input: nw.ownerInput[base+key], outKey: uint8(key)})
		return
	}
	var req uint64
	for m := heads; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); int(nw.reqKey[base+i]) == key {
			req |= 1 << i
		}
	}
	input := bits.TrailingZeros64(req)
	if later := req &^ (2<<nw.lastGranted[base+key] - 1); later != 0 {
		input = bits.TrailingZeros64(later)
	}
	nw.lastGranted[base+key] = uint8(input)
	nw.moves = append(nw.moves, move{router: int32(v), input: uint8(input), outKey: uint8(key), acquire: true})
}

// requestKey returns the virtual output key the message's head flit
// requests at router v.
func (nw *Network) requestKey(v int, msg *Message) int8 {
	o, eject := nw.outputPortFor(v, msg.Dst)
	if eject {
		return int8(nw.ejectKey())
	}
	return int8(o*2 + vcFor(msg, o))
}

// commit applies the decided transfers. A tail flit releases its
// output; a fabric move of key o·2+vc lands in input o·2+vc of
// nbr[v·ports+o], which borrows a ring if it has none. The slab is
// held in a local and reloaded only when lending grows it.
func (nw *Network) commit() {
	if len(nw.moves) > 0 {
		nw.lastProgress = nw.now
	}
	nin, depth, ek := nw.nin, nw.cfg.BufferDepth, nw.ejectKey()
	slab := nw.rings.slab
	for _, mv := range nw.moves {
		v, input, key := int(mv.router), int(mv.input), int(mv.outKey)
		base := v * nin
		in := &nw.in[base+input]
		f := in.pop(slab, depth)
		if mv.acquire {
			nw.owner[base+key] = f.msg
			nw.ownerInput[base+key] = mv.input
			nw.held[v] |= 1 << key
			nw.feed[v] |= 1 << input
		}
		if f.isTail() {
			nw.owner[base+key] = nil
			nw.held[v] &^= 1 << key
			nw.feed[v] &^= 1 << input
			// The input no longer feeds anything: its next flit, if any,
			// is the head of the next worm. Route it now, once.
			if !in.empty() {
				nw.reqKey[base+input] = nw.requestKey(v, in.peek(slab).msg)
			}
		}
		if in.empty() {
			nw.occ[v] &^= 1 << input
		}
		if key == ek {
			nw.flitsOut++
			if f.isTail() {
				nw.completeDelivery(f.msg)
			}
			continue
		}
		o := key >> 1
		dest := int(nw.nbr[v*nw.ports+o])
		if mv.acquire {
			// Update the worm's dateline state as its head advances;
			// body flits inherit the reserved path.
			if dim := o >> 1; f.msg.curDim != dim {
				f.msg.curDim = dim
				f.msg.vcClass = 0
			}
			if wraps(v, o, dest) {
				f.msg.vcClass = 1
			}
		}
		if f.isHead() {
			f.msg.Hops++
		}
		nw.flitHops.Inc()
		f.arrivedAt = nw.now
		out := &nw.in[dest*nin+key]
		if out.empty() && f.isHead() {
			// The head fronts an unfed input (a fed one awaits its own
			// worm's body flits), and the worm's dateline state is final
			// for this hop: route it now, once.
			nw.reqKey[dest*nin+key] = nw.requestKey(dest, f.msg)
		}
		if out.off == 0 {
			nw.rings.lend(out)
			slab = nw.rings.slab
		}
		out.push(slab, f, depth)
		nw.occ[dest] |= 1 << key
		// A flit arriving this cycle cannot move before the next one
		// (decide runs before commit), so activating the destination
		// now — for the next cycle's worklist — is timing-exact.
		nw.activate(dest)
	}
}

// compactActive drops drained routers from the active set: a router
// with no buffered flits and no queued injections contributes nothing
// to any future cycle until traffic re-activates it. Its buffers' rings
// go back to the slab's free list. Its persistent arbitration rotors
// (lastGranted, lastVC) and any stretched-worm output ownership stay in
// the flat arrays, untouched, exactly as a dense sweep would leave
// them; the dense sweep keeps every router, and so every ring. Only
// worklist routers can have drained: a router activated during this
// cycle received a flit or a queued message.
func (nw *Network) compactActive() {
	if nw.forceDense {
		return
	}
	nin := nw.nin
	for _, v32 := range nw.worklist {
		if v := int(v32); nw.occ[v] == 0 && len(nw.injectQ[v]) == 0 {
			nw.deactivate(v)
			nw.rings.reclaim(nw.in[v*nin : v*nin+nin])
		}
	}
}

func (nw *Network) completeDelivery(msg *Message) {
	msg.DeliveredAt = nw.now
	nw.deliveredCount.Inc()
	nw.latency.Add(float64(msg.Latency()))
	nw.netLatency.Add(float64(msg.NetworkLatency()))
	nw.hops.Add(float64(msg.Hops))
	if nw.deliver != nil {
		nw.deliver(nw.now, msg)
	}
}

func (nw *Network) stepLocal() {
	if len(nw.local) == 0 {
		return
	}
	kept := nw.local[:0]
	for _, e := range nw.local {
		if e.due <= nw.now {
			e.msg.DeliveredAt = nw.now
			nw.lastProgress = nw.now
			if nw.deliver != nil {
				nw.deliver(nw.now, e.msg)
			}
		} else {
			kept = append(kept, e)
		}
	}
	// Zero the dropped tail so the backing array does not keep
	// delivered messages reachable.
	clear(nw.local[len(kept):])
	nw.local = kept
}

// Quiesced reports whether no traffic remains anywhere in the network.
// O(1): queued covers the injection queues, the lifetime conservation
// counters cover every switch buffer, and local covers the bypass.
func (nw *Network) Quiesced() bool {
	return nw.queued == 0 && nw.flitsIn == nw.flitsOut && len(nw.local) == 0
}

// Stats is a snapshot of the network's aggregate measurements.
type Stats struct {
	// Injected counts network messages that entered the fabric
	// (src == dst messages are excluded).
	Injected int64
	// Delivered counts fabric messages whose tails reached their
	// destinations.
	Delivered int64
	// FlitHops counts flit-channel traversals within the fabric.
	FlitHops int64
	// AvgLatency is the mean end-to-end latency including source
	// queueing (N-cycles).
	AvgLatency float64
	// AvgNetLatency excludes source queueing.
	AvgNetLatency float64
	// AvgHops is the mean hop count per delivered message.
	AvgHops float64
	// AvgSize is the mean injected message size in flits.
	AvgSize float64
	// ChannelUtilization is the mean fraction of directional channels
	// busy per cycle so far.
	ChannelUtilization float64
	// Cycles is the number of simulated cycles.
	Cycles int64
}

// Snapshot returns aggregate statistics accumulated since the last
// ResetStats (or construction).
func (nw *Network) Snapshot() Stats {
	s := Stats{
		Injected:      nw.injected.Value(),
		Delivered:     nw.deliveredCount.Value(),
		FlitHops:      nw.flitHops.Value(),
		AvgLatency:    nw.latency.Mean(),
		AvgNetLatency: nw.netLatency.Mean(),
		AvgHops:       nw.hops.Mean(),
		AvgSize:       nw.sizes.Mean(),
		Cycles:        nw.now - nw.statsSince,
	}
	if s.Cycles > 0 {
		channels := float64(nw.topo.ChannelCount())
		s.ChannelUtilization = float64(s.FlitHops) / (float64(s.Cycles) * channels)
	}
	return s
}

// ResetStats zeroes the accumulated statistics without disturbing
// in-flight traffic, so a measurement window can exclude warmup.
// Messages in flight at the reset are attributed to the window in
// which they deliver.
func (nw *Network) ResetStats() {
	nw.statsSince = nw.now
	nw.injected = stats.Counter{}
	nw.deliveredCount = stats.Counter{}
	nw.flitHops = stats.Counter{}
	nw.latency = stats.Mean{}
	nw.netLatency = stats.Mean{}
	nw.hops = stats.Mean{}
	nw.sizes = stats.Mean{}
}

// inFlightFlits counts flits currently buffered anywhere in the fabric
// (injection buffers included; queued-but-uninjected messages are not).
// O(1): by flit conservation, which Check verifies, it is the flits
// accepted less the flits ejected.
func (nw *Network) inFlightFlits() int { return int(nw.flitsIn - nw.flitsOut) }

// Check verifies the fabric's structural invariants: flit conservation
// (every flit ever accepted has either been ejected or is buffered in
// a switch), the queued-message counter, the input-occupancy, held-
// output and feeding-input masks, and the active set — exactly the
// routers with buffered flits or queued injections (every such router,
// no drained ones), with each summary bit set iff its word is non-zero
// and the count equal to the bits set. It also verifies what decide
// relies on instead of re-checking each cycle: every buffered flit
// arrived before Now, no input feeds two held outputs, a fed input's
// front flit is a body flit of the worm holding the output it feeds,
// every other occupied input fronts a head, and each input's reqKey is
// the output it feeds or its front head requests. And it verifies the
// ring lending: every occupied buffer holds a ring; each lent offset is
// an aligned ring of the slab, lent once, never the sentinel; the free
// offsets are likewise rings, disjoint from the lent ones, and every
// ring is lent or free; a router outside the active set lends nothing;
// and every slot outside the buffered flits is zero, so no ring keeps a
// delivered message reachable. Watchdog and restore code call this so
// no code path can silently leak flits or rings or corrupt the active
// set. O(N·nin + slab), so not for per-cycle hot paths.
func (nw *Network) Check() error {
	var inFlight int64
	q := 0
	depth, slab := nw.cfg.BufferDepth, nw.rings.slab
	if len(slab) < depth || len(slab)%depth != 0 {
		return fmt.Errorf("netsim: ring slab holds %d flits, not whole %d-flit rings", len(slab), depth)
	}
	// taken[r] marks slab ring r (offset r·depth) lent or free; ring 0 is
	// the sentinel. take marks off's ring, or says why it cannot.
	taken := make([]bool, len(slab)/depth)
	taken[0] = true
	take := func(off int32) string {
		r := int(off) / depth
		switch {
		case off < 0 || int(off)%depth != 0 || r >= len(taken):
			return fmt.Sprintf("ring offset %d is not a %d-flit ring of the %d-flit slab", off, depth, len(slab))
		case taken[r]:
			return fmt.Sprintf("ring offset %d is the sentinel or already lent or free", off)
		}
		taken[r] = true
		return ""
	}
	// stale returns the first of the n ring slots from slot from that
	// holds a flit, or -1.
	stale := func(ring []flit, from, n int) int {
		for j := 0; j < n; j++ {
			if slot := (from + j) % depth; ring[slot] != (flit{}) {
				return slot
			}
		}
		return -1
	}
	if slot := stale(slab[:depth], 0, depth); slot >= 0 {
		return fmt.Errorf("netsim: the sentinel ring holds a flit in slot %d at cycle %d", slot, nw.now)
	}
	for v := 0; v < nw.nodes; v++ {
		base := v * nw.nin
		var occ, held, feed uint64
		lends := false
		for key := 0; key < nw.nin; key++ {
			in := &nw.in[base+key]
			if in.off == 0 {
				if in.count > 0 {
					return fmt.Errorf("netsim: router %d input %d buffers %d flits without a ring at cycle %d", v, key, in.count, nw.now)
				}
			} else {
				lends = true
				if why := take(in.off); why != "" {
					return fmt.Errorf("netsim: router %d input %d %s at cycle %d", v, key, why, nw.now)
				}
				if int(in.head) >= depth || int(in.count) > depth {
					return fmt.Errorf("netsim: router %d input %d window (head %d, %d flits) overruns its %d-flit ring at cycle %d",
						v, key, in.head, in.count, depth, nw.now)
				}
				ring := in.window(slab, depth)
				if slot := stale(ring, int(in.head)+int(in.count), depth-int(in.count)); slot >= 0 {
					return fmt.Errorf("netsim: router %d input %d keeps a stale flit in vacant slot %d at cycle %d", v, key, slot, nw.now)
				}
				for n, j := 0, int(in.head); n < int(in.count); n++ {
					if at := ring[j].arrivedAt; at >= nw.now {
						return fmt.Errorf("netsim: router %d input %d buffers a flit that arrived at cycle %d, not before cycle %d", v, key, at, nw.now)
					}
					if j++; j == depth {
						j = 0
					}
				}
			}
			if in.count > 0 {
				occ |= 1 << key
				inFlight += int64(in.count)
			}
			if nw.owner[base+key] == nil {
				continue
			}
			held |= 1 << key
			i := int(nw.ownerInput[base+key])
			if feed>>i&1 != 0 {
				return fmt.Errorf("netsim: router %d input %d feeds two held outputs at cycle %d", v, i, nw.now)
			}
			feed |= 1 << i
		}
		if occ != nw.occ[v] {
			return fmt.Errorf("netsim: router %d input-occupancy mask drifted at cycle %d: mask %x, buffers %x",
				v, nw.now, nw.occ[v], occ)
		}
		if held != nw.held[v] {
			return fmt.Errorf("netsim: router %d held-output mask drifted at cycle %d: mask %x, owners %x",
				v, nw.now, nw.held[v], held)
		}
		if feed != nw.feed[v] {
			return fmt.Errorf("netsim: router %d feeding-input mask drifted at cycle %d: mask %x, owners %x",
				v, nw.now, nw.feed[v], feed)
		}
		for m := held; m != 0; m &= m - 1 {
			key := bits.TrailingZeros64(m)
			if i := nw.ownerInput[base+key]; int(nw.reqKey[base+int(i)]) != key {
				return fmt.Errorf("netsim: router %d input %d feeds output %d but its key reads %d at cycle %d",
					v, i, key, nw.reqKey[base+int(i)], nw.now)
			}
		}
		for m := occ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			f := nw.in[base+i].peek(slab)
			if feed>>i&1 != 0 {
				if key := int(nw.reqKey[base+i]); f.msg != nw.owner[base+key] || f.isHead() {
					return fmt.Errorf("netsim: router %d input %d feeds output %d but fronts flit %d of message %d→%d at cycle %d",
						v, i, key, f.seq, f.msg.Src, f.msg.Dst, nw.now)
				}
				continue
			}
			if !f.isHead() {
				return fmt.Errorf("netsim: router %d input %d fronts body flit %d of message %d→%d but feeds no output at cycle %d",
					v, i, f.seq, f.msg.Src, f.msg.Dst, nw.now)
			}
			if want := nw.requestKey(v, f.msg); nw.reqKey[base+i] != want {
				return fmt.Errorf("netsim: router %d input %d head requests output %d but its key reads %d at cycle %d",
					v, i, want, nw.reqKey[base+i], nw.now)
			}
		}
		occupied := occ != 0 || len(nw.injectQ[v]) > 0
		isActive := nw.active[v>>6]&(1<<(v&63)) != 0
		if occupied && !isActive {
			return fmt.Errorf("netsim: router %d holds traffic at cycle %d but is missing from the active set", v, nw.now)
		}
		if !occupied && isActive && !nw.forceDense {
			return fmt.Errorf("netsim: drained router %d left in the active set at cycle %d", v, nw.now)
		}
		if lends && !isActive {
			return fmt.Errorf("netsim: router %d is outside the active set but holds rings at cycle %d", v, nw.now)
		}
		q += len(nw.injectQ[v])
	}
	for _, off := range nw.rings.free {
		if why := take(off); why != "" {
			return fmt.Errorf("netsim: free %s at cycle %d", why, nw.now)
		}
		if slot := stale(slab[off:int(off)+depth], 0, depth); slot >= 0 {
			return fmt.Errorf("netsim: free ring offset %d keeps a stale flit in slot %d at cycle %d", off, slot, nw.now)
		}
	}
	for r, ok := range taken {
		if !ok {
			return fmt.Errorf("netsim: ring offset %d is neither lent nor free at cycle %d", r*depth, nw.now)
		}
	}
	if nw.flitsIn != nw.flitsOut+inFlight {
		return fmt.Errorf("netsim: flit conservation violated at cycle %d: injected %d != delivered %d + in-flight %d",
			nw.now, nw.flitsIn, nw.flitsOut, inFlight)
	}
	if q != nw.queued {
		return fmt.Errorf("netsim: queued-message count drifted at cycle %d: counter %d, queues hold %d",
			nw.now, nw.queued, q)
	}
	set := 0
	for w := 0; w < len(nw.activeSum)<<6; w++ {
		word := uint64(0)
		if w < len(nw.active) {
			word = nw.active[w]
		}
		if (word != 0) != (nw.activeSum[w>>6]&(1<<(w&63)) != 0) {
			return fmt.Errorf("netsim: active-set summary bit %d disagrees with its word %x at cycle %d", w, word, nw.now)
		}
		set += bits.OnesCount64(word)
	}
	if set != nw.activeCount {
		return fmt.Errorf("netsim: active set holds %d routers but counts %d at cycle %d", set, nw.activeCount, nw.now)
	}
	return nil
}

// Busy reports whether any traffic is anywhere in the network (the
// complement of Quiesced, for watchdog use).
func (nw *Network) Busy() bool { return !nw.Quiesced() }

// LastProgress returns the most recent cycle on which a flit entered,
// moved within, or left the fabric. A busy network whose LastProgress
// stays fixed is deadlocked.
func (nw *Network) LastProgress() int64 { return nw.lastProgress }

// DiagSnapshot renders a structured diagnostic of the fabric's current
// occupancy for stall reports: per-switch virtual-channel buffer
// occupancy, the worm holding each virtual output, and the age of the
// oldest buffered flit. Only non-empty switches are listed, capped to
// keep reports readable. O(active routers), not O(N).
func (nw *Network) DiagSnapshot() string {
	const maxRouters = 16
	var b strings.Builder
	fmt.Fprintf(&b, "network @ N-cycle %d: %d flits in flight, last progress at %d\n",
		nw.now, nw.inFlightFlits(), nw.lastProgress)
	var busyRouters []int
	for _, v32 := range nw.appendActive(nil) {
		if v := int(v32); nw.occ[v] != 0 || len(nw.injectQ[v]) > 0 {
			busyRouters = append(busyRouters, v)
		}
	}
	shown := busyRouters
	if len(shown) > maxRouters {
		shown = shown[:maxRouters]
	}
	for _, v := range shown {
		base := v * nw.nin
		fmt.Fprintf(&b, "  router %d (%v):", v, nw.topo.Coords(v))
		if q := len(nw.injectQ[v]); q > 0 {
			fmt.Fprintf(&b, " injectQ=%d", q)
		}
		for key := 0; key < nw.nin; key++ {
			in := &nw.in[base+key]
			if in.empty() {
				continue
			}
			f := in.peek(nw.rings.slab)
			name := "inject"
			if key < 2*nw.ports {
				name = fmt.Sprintf("dim%d%svc%d", key/4, map[bool]string{true: "+", false: "-"}[(key/2)%2 == 0], key%2)
			}
			fmt.Fprintf(&b, " %s=%dflits(head %d→%d age %d)",
				name, in.count, f.msg.Src, f.msg.Dst, nw.now-f.arrivedAt)
		}
		for key := 0; key < nw.nin; key++ {
			if owner := nw.owner[base+key]; owner != nil {
				fmt.Fprintf(&b, " owner[%d]=%d→%d", key, owner.Src, owner.Dst)
			}
		}
		b.WriteByte('\n')
	}
	if len(busyRouters) > maxRouters {
		fmt.Fprintf(&b, "  … %d more occupied routers elided\n", len(busyRouters)-maxRouters)
	}
	return b.String()
}
