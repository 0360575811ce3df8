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
// zeroed slices are backed by untouched pages). Listing the active
// routers needs no sort, and moving a flit reads a per-port neighbor
// table instead of dividing out coordinates. Each head is routed once
// per hop, when it becomes the front of its input, and a router's
// decide works from three one-word masks (occupied inputs, held
// outputs, inputs feeding a held output) to arbitrate only the outputs
// that can move a flit, so a router has at most 64 inputs and a torus
// at most 15 dimensions. All of this is behavior-preserving: see
// DESIGN.md §5i for the parity argument.
package netsim

import (
	"fmt"
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

// fifo is a bounded flit queue (one switch input buffer). It is a value
// type so buffers pack into one flat slice per network; the ring
// storage is allocated lazily on first push, so the millions of
// never-touched buffers of a large mostly-idle fabric cost nothing.
// The depth is owned by the network and passed in where needed.
type fifo struct {
	buf   []flit
	head  int32
	count int32
}

func (q *fifo) full(depth int) bool { return int(q.count) == depth }
func (q *fifo) empty() bool         { return q.count == 0 }

func (q *fifo) push(f flit, depth int) {
	if int(q.count) == depth {
		panic("netsim: push to full buffer")
	}
	if q.buf == nil {
		q.buf = make([]flit, depth)
	}
	i := int(q.head + q.count)
	if i >= depth {
		i -= depth
	}
	q.buf[i] = f
	q.count++
}

func (q *fifo) peek() flit {
	if q.empty() {
		panic("netsim: peek at empty buffer")
	}
	return q.buf[q.head]
}

// pop removes the front flit, zeroing its slot so the ring does not
// keep a delivered message reachable.
func (q *fifo) pop() flit {
	f := q.peek()
	q.buf[q.head] = flit{}
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.count--
	return f
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
type Network struct {
	cfg   Config
	topo  *topology.Torus
	dims  int
	k     int
	ports int // directional physical ports per router (2·dims)
	nin   int // input buffers / virtual output keys per router (2·ports+1)
	nodes int

	// in[v·nin+key] is router v's input buffer for key (lazy storage).
	in []fifo
	// owner[v·nin+key] is the message holding virtual output key, or nil.
	owner []*Message
	// ownerInput[v·nin+key] is the input buffer index feeding that worm.
	ownerInput []int32
	// lastGranted[v·nin+key] rotates arbitration among inputs for a key.
	lastGranted []int32
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
	nw := &Network{
		cfg:         cfg,
		topo:        cfg.Topo,
		dims:        dims,
		k:           cfg.Topo.K(),
		ports:       ports,
		nin:         nin,
		nodes:       n,
		in:          make([]fifo, n*nin),
		owner:       make([]*Message, n*nin),
		ownerInput:  make([]int32, n*nin),
		lastGranted: make([]int32, n*nin),
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
	if in.full(nw.cfg.BufferDepth) {
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
	in.push(flit{msg: msg, seq: seq, arrivedAt: nw.now}, nw.cfg.BufferDepth)
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
		nw.moves = append(nw.moves, move{router: int32(v), input: uint8(nw.ownerInput[base+key]), outKey: uint8(key)})
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
	nw.lastGranted[base+key] = int32(input)
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
// nbr[v·ports+o].
func (nw *Network) commit() {
	if len(nw.moves) > 0 {
		nw.lastProgress = nw.now
	}
	ek := nw.ejectKey()
	for _, mv := range nw.moves {
		v, input, key := int(mv.router), int(mv.input), int(mv.outKey)
		base := v * nw.nin
		in := &nw.in[base+input]
		f := in.pop()
		if mv.acquire {
			nw.owner[base+key] = f.msg
			nw.ownerInput[base+key] = int32(input)
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
				nw.reqKey[base+input] = nw.requestKey(v, in.peek().msg)
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
		out := &nw.in[dest*nw.nin+key]
		if out.empty() && f.isHead() {
			// The head fronts an unfed input (a fed one awaits its own
			// worm's body flits), and the worm's dateline state is final
			// for this hop: route it now, once.
			nw.reqKey[dest*nw.nin+key] = nw.requestKey(dest, f.msg)
		}
		out.push(f, nw.cfg.BufferDepth)
		nw.occ[dest] |= 1 << key
		// A flit arriving this cycle cannot move before the next one
		// (decide runs before commit), so activating the destination
		// now — for the next cycle's worklist — is timing-exact.
		nw.activate(dest)
	}
}

// compactActive drops drained routers from the active set: a router
// with no buffered flits and no queued injections contributes nothing
// to any future cycle until traffic re-activates it. Its persistent
// arbitration rotors (lastGranted, lastVC) and any stretched-worm
// output ownership stay in the flat arrays, untouched, exactly as a
// dense sweep would leave them. Only worklist routers can have
// drained: a router activated during this cycle received a flit or a
// queued message.
func (nw *Network) compactActive() {
	if nw.forceDense {
		return
	}
	for _, v32 := range nw.worklist {
		if v := int(v32); nw.occ[v] == 0 && len(nw.injectQ[v]) == 0 {
			nw.deactivate(v)
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
// the output it feeds or its front head requests. Watchdog and
// restore code call this so no code path can silently leak flits or
// corrupt the active set. O(N·nin + buffered flits), so not for
// per-cycle hot paths.
func (nw *Network) Check() error {
	var inFlight int64
	q := 0
	for v := 0; v < nw.nodes; v++ {
		base := v * nw.nin
		var occ, held, feed uint64
		for key := 0; key < nw.nin; key++ {
			in := &nw.in[base+key]
			if in.count > 0 {
				occ |= 1 << key
				inFlight += int64(in.count)
				for n, j := 0, int(in.head); n < int(in.count); n++ {
					if at := in.buf[j].arrivedAt; at >= nw.now {
						return fmt.Errorf("netsim: router %d input %d buffers a flit that arrived at cycle %d, not before cycle %d", v, key, at, nw.now)
					}
					if j++; j == len(in.buf) {
						j = 0
					}
				}
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
			f := nw.in[base+i].peek()
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
		q += len(nw.injectQ[v])
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
			f := in.peek()
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
