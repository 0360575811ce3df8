package netsim

import (
	"fmt"
	"math/bits"

	"locality/internal/stats"
)

// This file serializes the fabric. A Message is shared by pointer
// between its buffered flits, virtual-output ownerships, injection
// queue slot, and local-bypass entry; the checkpoint flattens every
// distinct message into an indexed table (enumeration order: router
// buffers, then owners, then injection queues, then local bypass — a
// deterministic order, so encoding is canonical) and references it by
// index. Payloads ride along as opaque values; the checkpoint codec is
// responsible for encoding them.
//
// The encoding is sparse: only routers with non-zero state (buffered
// flits, held outputs, or non-zero arbitration rotors) and non-empty
// injection queues appear, each tagged with its index, in strictly
// ascending order. A large mostly-idle fabric therefore checkpoints in
// O(touched routers) space and the encoding is canonical — a restored
// network re-encodes to the identical state. Unobservable residue is
// canonicalized away: OwnerInput is recorded as 0 for free outputs
// (the field is only read while the output is held).

// MessageState is one in-flight message's serialized state. It has no
// delivery time: every tabled message is undelivered, and delivery sets
// DeliveredAt before anything reads it.
type MessageState struct {
	Src, Dst, Size         int
	Payload                any
	EnqueuedAt, InjectedAt int64
	Hops                   int
	Remaining              int
	CurDim                 int
	VCClass                int
}

// FlitState is one buffered flit; Msg indexes the message table.
type FlitState struct {
	Msg       int
	Seq       int
	ArrivedAt int64
}

// RouterState is one non-zero switch's serialized state, tagged with
// its router index. Inputs hold each buffer's flits in pop order.
type RouterState struct {
	Index       int
	Inputs      [][]FlitState
	Owner       []int // message index, -1 when free
	OwnerInput  []int // 0 when the output is free (canonical form)
	LastGranted []int
	LastVC      []int
}

// InjectQState is one node's non-empty injection queue.
type InjectQState struct {
	Node int
	Msgs []int // message indices in queue order
}

// LocalState is one local-bypass delivery in flight.
type LocalState struct {
	Msg int
	Due int64
}

// CheckpointState is the network's complete serializable state.
// Routers and InjectQ are sparse: strictly ascending indices, zero
// state omitted.
type CheckpointState struct {
	Messages []MessageState
	Routers  []RouterState
	InjectQ  []InjectQState
	Local    []LocalState

	Now          int64
	LastProgress int64
	FlitsIn      int64
	FlitsOut     int64

	StatsSince int64
	Injected   int64
	Delivered  int64
	FlitHops   int64
	Latency    stats.MeanState
	NetLatency stats.MeanState
	Hops       stats.MeanState
	Sizes      stats.MeanState
}

// routerZero reports whether router v carries no serializable state:
// no buffered flits, no held virtual outputs, and all arbitration
// rotors at their initial values.
func (nw *Network) routerZero(v int) bool {
	if nw.occ[v] != 0 {
		return false
	}
	base := v * nw.nin
	for key := 0; key < nw.nin; key++ {
		if nw.owner[base+key] != nil || nw.lastGranted[base+key] != 0 {
			return false
		}
	}
	for o := 0; o < nw.ports; o++ {
		if nw.lastVC[v*nw.ports+o] != 0 {
			return false
		}
	}
	return true
}

// Checkpoint captures the network's current state.
func (nw *Network) Checkpoint() CheckpointState {
	index := make(map[*Message]int)
	var msgs []MessageState
	ref := func(m *Message) int {
		if i, ok := index[m]; ok {
			return i
		}
		i := len(msgs)
		index[m] = i
		msgs = append(msgs, MessageState{
			Src: m.Src, Dst: m.Dst, Size: m.Size,
			Payload:    m.Payload,
			EnqueuedAt: m.EnqueuedAt,
			InjectedAt: m.InjectedAt,
			Hops:       m.Hops,
			Remaining:  m.remaining,
			CurDim:     m.curDim,
			VCClass:    m.vcClass,
		})
		return i
	}
	s := CheckpointState{
		Now:          nw.now,
		LastProgress: nw.lastProgress,
		FlitsIn:      nw.flitsIn,
		FlitsOut:     nw.flitsOut,
		StatsSince:   nw.statsSince,
		Injected:     nw.injected.Value(),
		Delivered:    nw.deliveredCount.Value(),
		FlitHops:     nw.flitHops.Value(),
		Latency:      nw.latency.State(),
		NetLatency:   nw.netLatency.State(),
		Hops:         nw.hops.State(),
		Sizes:        nw.sizes.State(),
	}
	depth := nw.cfg.BufferDepth
	for v := 0; v < nw.nodes; v++ {
		if nw.routerZero(v) {
			continue
		}
		base := v * nw.nin
		rs := RouterState{
			Index:       v,
			Inputs:      make([][]FlitState, nw.nin),
			Owner:       make([]int, nw.nin),
			OwnerInput:  make([]int, nw.nin),
			LastGranted: make([]int, nw.nin),
			LastVC:      make([]int, nw.ports),
		}
		for key := 0; key < nw.nin; key++ {
			in := &nw.in[base+key]
			var flits []FlitState // nil when empty, matching the codec
			ring := in.window(nw.rings.slab, depth)
			for n := 0; n < int(in.count); n++ {
				f := ring[(int(in.head)+n)%depth]
				flits = append(flits, FlitState{Msg: ref(f.msg), Seq: f.seq, ArrivedAt: f.arrivedAt})
			}
			rs.Inputs[key] = flits
		}
		for key := 0; key < nw.nin; key++ {
			if owner := nw.owner[base+key]; owner != nil {
				rs.Owner[key] = ref(owner)
				rs.OwnerInput[key] = int(nw.ownerInput[base+key])
			} else {
				rs.Owner[key] = -1
			}
			rs.LastGranted[key] = int(nw.lastGranted[base+key])
		}
		for o := 0; o < nw.ports; o++ {
			rs.LastVC[o] = int(nw.lastVC[v*nw.ports+o])
		}
		s.Routers = append(s.Routers, rs)
	}
	for v, q := range nw.injectQ {
		if len(q) == 0 {
			continue
		}
		idxs := make([]int, len(q))
		for i, m := range q {
			idxs[i] = ref(m)
		}
		s.InjectQ = append(s.InjectQ, InjectQState{Node: v, Msgs: idxs})
	}
	s.Local = make([]LocalState, len(nw.local))
	for i, e := range nw.local {
		s.Local[i] = LocalState{Msg: ref(e.msg), Due: e.due}
	}
	s.Messages = msgs
	return s
}

// Restore overwrites the network with a previously captured state. The
// network must have been built with the same configuration; the
// delivery callback stays as wired. Every router and
// queue absent from the sparse state is reset to zero, the active set
// and masks are rebuilt from the restored occupancy, and each head at
// the front of an unfed input is routed. The final Check rejects a
// state the fabric could not have reached, such as a body flit
// fronting an input that feeds no held output, which decide would
// otherwise move wrongly or never.
func (nw *Network) Restore(s CheckpointState) error {
	nodes := nw.nodes
	for i, ms := range s.Messages {
		if ms.Src < 0 || ms.Src >= nodes || ms.Dst < 0 || ms.Dst >= nodes {
			return fmt.Errorf("netsim: message %d endpoints %d→%d out of range", i, ms.Src, ms.Dst)
		}
		if ms.Size < 1 || ms.Remaining < 0 || ms.Remaining > ms.Size {
			return fmt.Errorf("netsim: message %d size %d / remaining %d invalid", i, ms.Size, ms.Remaining)
		}
		if ms.CurDim < -1 || ms.CurDim >= nw.dims || ms.VCClass < 0 || ms.VCClass > 1 {
			return fmt.Errorf("netsim: message %d routing state invalid", i)
		}
	}
	checkRef := func(what string, idx int) error {
		if idx < 0 || idx >= len(s.Messages) {
			return fmt.Errorf("netsim: %s references message %d of %d", what, idx, len(s.Messages))
		}
		return nil
	}
	nin := nw.nin
	prev := -1
	for _, rs := range s.Routers {
		if rs.Index <= prev || rs.Index >= nodes {
			return fmt.Errorf("netsim: router index %d out of order or range (previous %d, nodes %d)", rs.Index, prev, nodes)
		}
		prev = rs.Index
		v := rs.Index
		if len(rs.Inputs) != nin || len(rs.Owner) != nin || len(rs.OwnerInput) != nin || len(rs.LastGranted) != nin {
			return fmt.Errorf("netsim: router %d checkpoint geometry mismatch", v)
		}
		if len(rs.LastVC) != nw.ports {
			return fmt.Errorf("netsim: router %d has %d VC rotors, want %d", v, len(rs.LastVC), nw.ports)
		}
		for i, flits := range rs.Inputs {
			if len(flits) > nw.cfg.BufferDepth {
				return fmt.Errorf("netsim: router %d input %d holds %d flits, depth is %d", v, i, len(flits), nw.cfg.BufferDepth)
			}
			for _, f := range flits {
				if err := checkRef("buffered flit", f.Msg); err != nil {
					return err
				}
				if f.Seq < 0 || f.Seq >= s.Messages[f.Msg].Size {
					return fmt.Errorf("netsim: flit sequence %d outside message of %d flits", f.Seq, s.Messages[f.Msg].Size)
				}
			}
		}
		for i, owner := range rs.Owner {
			if owner != -1 {
				if err := checkRef("output owner", owner); err != nil {
					return err
				}
			}
			if rs.OwnerInput[i] < 0 || rs.OwnerInput[i] >= nin {
				return fmt.Errorf("netsim: router %d owner input %d out of range", v, rs.OwnerInput[i])
			}
			if rs.LastGranted[i] < 0 || rs.LastGranted[i] >= nin {
				return fmt.Errorf("netsim: router %d arbitration rotor %d out of range", v, rs.LastGranted[i])
			}
		}
		for o, vc := range rs.LastVC {
			if vc < 0 || vc > 1 {
				return fmt.Errorf("netsim: router %d port %d VC rotor %d invalid", v, o, vc)
			}
		}
	}
	prev = -1
	for _, qs := range s.InjectQ {
		if qs.Node <= prev || qs.Node >= nodes {
			return fmt.Errorf("netsim: injection queue node %d out of order or range (previous %d, nodes %d)", qs.Node, prev, nodes)
		}
		prev = qs.Node
		if len(qs.Msgs) == 0 {
			return fmt.Errorf("netsim: empty injection queue entry for node %d (must be omitted)", qs.Node)
		}
		for _, idx := range qs.Msgs {
			if err := checkRef(fmt.Sprintf("injection queue %d", qs.Node), idx); err != nil {
				return err
			}
		}
	}
	for _, e := range s.Local {
		if err := checkRef("local delivery", e.Msg); err != nil {
			return err
		}
	}

	msgs := make([]*Message, len(s.Messages))
	for i, ms := range s.Messages {
		msgs[i] = &Message{
			Src: ms.Src, Dst: ms.Dst, Size: ms.Size,
			Payload:    ms.Payload,
			EnqueuedAt: ms.EnqueuedAt,
			InjectedAt: ms.InjectedAt,
			Hops:       ms.Hops,
			remaining:  ms.Remaining,
			curDim:     ms.CurDim,
			vcClass:    ms.VCClass,
		}
	}
	// Reset every router to zero state and take back every ring, then
	// overlay the sparse entries, lending a ring to each occupied buffer,
	// and rebuild the active set and masks from the restored occupancy.
	clear(nw.in)
	nw.rings.reset()
	clear(nw.owner)
	clear(nw.ownerInput)
	clear(nw.lastGranted)
	clear(nw.lastVC)
	clear(nw.occ)
	clear(nw.held)
	clear(nw.feed)
	for v := 0; v < nodes; v++ {
		nw.injectQ[v] = nil
	}
	clear(nw.active)
	clear(nw.activeSum)
	nw.activeCount = 0
	for _, rs := range s.Routers {
		v := rs.Index
		base := v * nin
		for i, flits := range rs.Inputs {
			if len(flits) == 0 {
				continue
			}
			in := &nw.in[base+i]
			nw.rings.lend(in)
			in.count = uint16(len(flits))
			ring := in.window(nw.rings.slab, nw.cfg.BufferDepth)
			for n, f := range flits {
				ring[n] = flit{msg: msgs[f.Msg], seq: f.Seq, arrivedAt: f.ArrivedAt}
			}
			nw.occ[v] |= 1 << i
		}
		for key, owner := range rs.Owner {
			if owner != -1 {
				input := rs.OwnerInput[key]
				nw.owner[base+key] = msgs[owner]
				nw.ownerInput[base+key] = uint8(input)
				nw.held[v] |= 1 << key
				nw.feed[v] |= 1 << input
				nw.reqKey[base+input] = int8(key)
			}
			nw.lastGranted[base+key] = uint8(rs.LastGranted[key])
		}
		for m := nw.occ[v] &^ nw.feed[v]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			nw.reqKey[base+i] = nw.requestKey(v, nw.in[base+i].peek(nw.rings.slab).msg)
		}
		for o, vc := range rs.LastVC {
			nw.lastVC[v*nw.ports+o] = uint8(vc)
		}
	}
	nw.queued = 0
	for _, qs := range s.InjectQ {
		queue := make([]*Message, len(qs.Msgs))
		for i, idx := range qs.Msgs {
			queue[i] = msgs[idx]
		}
		nw.injectQ[qs.Node] = queue
		nw.queued += len(queue)
	}
	for v := 0; v < nodes; v++ {
		if nw.occ[v] != 0 || len(nw.injectQ[v]) > 0 {
			nw.activate(v)
		}
	}
	if nw.forceDense {
		nw.forceDenseSweep()
	}
	nw.local = make([]localEntry, len(s.Local))
	for i, e := range s.Local {
		nw.local[i] = localEntry{msg: msgs[e.Msg], due: e.Due}
	}
	nw.now = s.Now
	nw.lastProgress = s.LastProgress
	nw.flitsIn = s.FlitsIn
	nw.flitsOut = s.FlitsOut
	nw.statsSince = s.StatsSince
	nw.injected.SetValue(s.Injected)
	nw.deliveredCount.SetValue(s.Delivered)
	nw.flitHops.SetValue(s.FlitHops)
	nw.latency.SetState(s.Latency)
	nw.netLatency.SetState(s.NetLatency)
	nw.hops.SetState(s.Hops)
	nw.sizes.SetState(s.Sizes)
	return nw.Check()
}
