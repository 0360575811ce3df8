package cohsim

import (
	"fmt"
	"sort"

	"locality/internal/cachesim"
	"locality/internal/stats"
)

// This file serializes the protocol engine. Transactions are shared by
// pointer across the MSHRs, directory entries, queued requests, the
// event queue, and in-flight network message payloads; the in-memory
// state structs therefore carry *Transaction references, and the
// checkpoint codec flattens them into one ID-keyed table so a restore
// rebuilds exactly one Transaction per ID with the original sharing.

// TxnState is one transaction's serialized state.
type TxnState struct {
	ID                 int64
	Node               int
	Addr               uint64
	Write              bool
	Started, Completed int64
	NetMessages        int
	Done               bool
	Waiters            []int
	PendingWrite       bool
}

// State captures the transaction's complete state, including the
// unexported completion bookkeeping.
func (t *Transaction) State() TxnState {
	return TxnState{
		ID:           t.ID,
		Node:         t.Node,
		Addr:         t.Addr,
		Write:        t.Write,
		Started:      t.Started,
		Completed:    t.Completed,
		NetMessages:  t.NetMessages,
		Done:         t.done,
		Waiters:      append([]int(nil), t.waiters...),
		PendingWrite: t.pendingWrite,
	}
}

// NewTransactionFromState rebuilds a transaction from its serialized
// state.
func NewTransactionFromState(s TxnState) *Transaction {
	return &Transaction{
		ID:           s.ID,
		Node:         s.Node,
		Addr:         s.Addr,
		Write:        s.Write,
		Started:      s.Started,
		Completed:    s.Completed,
		NetMessages:  s.NetMessages,
		done:         s.Done,
		waiters:      append([]int(nil), s.Waiters...),
		pendingWrite: s.PendingWrite,
	}
}

// ActionState mirrors action with exported fields.
type ActionState struct {
	Kind    uint8
	Node    int
	Peer    int
	MsgKind uint8
	Addr    uint64
	Txn     *Transaction
	Size    int
}

// EventState is one pending event.
type EventState struct {
	Due, Seq int64
	Act      ActionState
}

// QueuedReqState is one request parked behind a busy directory entry.
type QueuedReqState struct {
	Kind uint8
	From int
	Txn  *Transaction
}

// DirEntryState is one directory entry's serialized state.
type DirEntryState struct {
	Addr       uint64
	State      uint8
	Sharers    []int
	Owner      int
	Busy       uint8
	PendingInv []int
	Requester  int
	Txn        *Transaction
	Queue      []QueuedReqState
}

// MSHRState is one outstanding-transaction slot.
type MSHRState struct {
	Addr uint64
	Txn  *Transaction
}

// NodeState is one node's serialized protocol state. Dir and MSHR are
// exported in ascending address order so encoding is canonical.
type NodeState struct {
	Cache cachesim.CheckpointState
	Dir   []DirEntryState
	MSHR  []MSHRState
}

// CheckpointState is the protocol engine's complete serializable
// state. Completed-transaction retention (KeepTransactions) is a
// test-only analysis aid and is not part of a checkpoint.
type CheckpointState struct {
	Nodes    []NodeState
	Events   []EventState // ascending (Due, Seq)
	Seq      int64
	TxnSeq   int64
	Now      int64
	NextSend []int64

	Transactions int64
	TxnLatency   stats.MeanState
	TxnMsgs      stats.MeanState
	NetMessages  int64
	KindCounts   []int64
	SWTraps      int64
	ReadMisses   int64
	WriteMisses  int64
}

// Checkpoint captures the engine's current state.
func (p *Protocol) Checkpoint() CheckpointState {
	s := CheckpointState{
		Nodes:        make([]NodeState, len(p.nodes)),
		Seq:          p.seq,
		TxnSeq:       p.txnSeq,
		Now:          p.now,
		NextSend:     append([]int64(nil), p.nextSend...),
		Transactions: p.txnCount.Value(),
		TxnLatency:   p.txnLatency.State(),
		TxnMsgs:      p.txnMsgs.State(),
		NetMessages:  p.netMsgs.Value(),
		KindCounts:   make([]int64, len(p.kindCounts)),
		SWTraps:      p.swTraps.Value(),
		ReadMisses:   p.readMiss.Value(),
		WriteMisses:  p.writeMiss.Value(),
	}
	for i := range p.kindCounts {
		s.KindCounts[i] = p.kindCounts[i].Value()
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		ns := NodeState{}
		if n.cache != nil {
			ns.Cache = n.cache.Checkpoint()
		}
		if len(n.dir) > 0 {
			ns.Dir = make([]DirEntryState, 0, len(n.dir))
		}
		if len(n.mshr) > 0 {
			ns.MSHR = make([]MSHRState, 0, len(n.mshr))
		}
		for addr, e := range n.dir {
			queue := make([]QueuedReqState, len(e.queue))
			for qi, q := range e.queue {
				queue[qi] = QueuedReqState{Kind: uint8(q.kind), From: q.from, Txn: q.txn}
			}
			ns.Dir = append(ns.Dir, DirEntryState{
				Addr:       addr,
				State:      uint8(e.state),
				Sharers:    append([]int(nil), e.sharers...),
				Owner:      e.owner,
				Busy:       uint8(e.busy),
				PendingInv: append([]int(nil), e.pendingInv...),
				Requester:  e.requester,
				Txn:        e.txn,
				Queue:      queue,
			})
		}
		sort.Slice(ns.Dir, func(a, b int) bool { return ns.Dir[a].Addr < ns.Dir[b].Addr })
		for addr, txn := range n.mshr {
			ns.MSHR = append(ns.MSHR, MSHRState{Addr: addr, Txn: txn})
		}
		sort.Slice(ns.MSHR, func(a, b int) bool { return ns.MSHR[a].Addr < ns.MSHR[b].Addr })
		s.Nodes[i] = ns
	}
	events := p.events.events()
	s.Events = make([]EventState, len(events))
	for i, e := range events {
		s.Events[i] = EventState{Due: e.due, Seq: e.seq, Act: ActionState{
			Kind:    uint8(e.act.kind),
			Node:    e.act.node,
			Peer:    e.act.peer,
			MsgKind: uint8(e.act.msgKind),
			Addr:    e.act.addr,
			Txn:     e.act.txn,
			Size:    e.act.size,
		}}
	}
	return s
}

// Restore overwrites the engine with a previously captured state. The
// engine must be freshly built with the same configuration; transport
// and callback wiring is untouched.
func (p *Protocol) Restore(s CheckpointState) error {
	if len(s.Nodes) != len(p.nodes) {
		return fmt.Errorf("cohsim: checkpoint has %d nodes, engine has %d", len(s.Nodes), len(p.nodes))
	}
	if len(s.NextSend) != len(p.nextSend) {
		return fmt.Errorf("cohsim: checkpoint has %d send slots, engine has %d", len(s.NextSend), len(p.nodes))
	}
	if len(s.KindCounts) != len(p.kindCounts) {
		return fmt.Errorf("cohsim: checkpoint has %d message-kind counters, engine has %d", len(s.KindCounts), len(p.kindCounts))
	}
	nodes := len(p.nodes)
	checkNode := func(what string, n int) error {
		if n < 0 || n >= nodes {
			return fmt.Errorf("cohsim: checkpoint %s node %d out of range", what, n)
		}
		return nil
	}
	for i, ns := range s.Nodes {
		for _, de := range ns.Dir {
			if de.State > uint8(dirModified) || de.Busy > uint8(busyReply) {
				return fmt.Errorf("cohsim: directory entry %#x at node %d has invalid state", de.Addr, i)
			}
			if de.Owner != -1 {
				if err := checkNode("directory owner", de.Owner); err != nil {
					return err
				}
			}
			for _, sh := range de.Sharers {
				if err := checkNode("sharer", sh); err != nil {
					return err
				}
			}
			for _, pi := range de.PendingInv {
				if err := checkNode("pending invalidation", pi); err != nil {
					return err
				}
			}
			for _, q := range de.Queue {
				if q.Kind > uint8(MsgWB) {
					return fmt.Errorf("cohsim: queued request kind %d invalid", q.Kind)
				}
				if err := checkNode("queued requester", q.From); err != nil {
					return err
				}
			}
		}
	}
	for i, e := range s.Events {
		if i > 0 {
			if prev := s.Events[i-1]; e.Due < prev.Due || e.Due == prev.Due && e.Seq <= prev.Seq {
				return fmt.Errorf("cohsim: checkpoint events not strictly ascending in (due, seq) at entry %d", i)
			}
		}
		if e.Seq > s.Seq {
			return fmt.Errorf("cohsim: checkpoint event sequence %d exceeds the protocol sequence %d", e.Seq, s.Seq)
		}
		a := e.Act
		kind := actKind(a.Kind)
		if kind > actGrantFill {
			return fmt.Errorf("cohsim: event action kind %d invalid", a.Kind)
		}
		if kind == actTransportSend && a.Size < 1 {
			return fmt.Errorf("cohsim: transport send of %d flits, must be ≥ 1", a.Size)
		}
		if a.MsgKind > uint8(MsgWB) {
			return fmt.Errorf("cohsim: event message kind %d invalid", a.MsgKind)
		}
		if err := checkNode("event", a.Node); err != nil {
			return err
		}
		if err := checkNode("event peer", a.Peer); err != nil {
			return err
		}
	}
	for i, ns := range s.Nodes {
		n := &p.nodes[i]
		// A node with zero cache state stays (or becomes) unmaterialized;
		// its cache re-materializes empty on the next touch, which is
		// indistinguishable from restoring an empty cache.
		if ns.Cache.Zero() {
			n.cache = nil
		} else {
			if n.cache == nil {
				n.cache = cachesim.MustNew(p.cfg.Cache)
			}
			if err := n.cache.Restore(ns.Cache); err != nil {
				return err
			}
		}
		n.dir = nil
		if len(ns.Dir) > 0 {
			n.dir = make(map[uint64]*dirEntry, len(ns.Dir))
		}
		for _, de := range ns.Dir {
			queue := make([]queuedReq, len(de.Queue))
			for qi, q := range de.Queue {
				queue[qi] = queuedReq{kind: MsgKind(q.Kind), from: q.From, txn: q.Txn}
			}
			n.dir[de.Addr] = &dirEntry{
				addr:       de.Addr,
				state:      dirState(de.State),
				sharers:    append([]int(nil), de.Sharers...),
				owner:      de.Owner,
				busy:       busyKind(de.Busy),
				pendingInv: append([]int(nil), de.PendingInv...),
				requester:  de.Requester,
				txn:        de.Txn,
				queue:      queue,
			}
		}
		n.mshr = nil
		if len(ns.MSHR) > 0 {
			n.mshr = make(map[uint64]*Transaction, len(ns.MSHR))
		}
		for _, ms := range ns.MSHR {
			if ms.Txn == nil {
				return fmt.Errorf("cohsim: MSHR entry %#x at node %d has no transaction", ms.Addr, i)
			}
			n.mshr[ms.Addr] = ms.Txn
		}
	}
	events := make([]event, len(s.Events))
	for i, e := range s.Events {
		events[i] = event{due: e.Due, seq: e.Seq, act: action{
			kind:    actKind(e.Act.Kind),
			node:    e.Act.Node,
			peer:    e.Act.Peer,
			msgKind: MsgKind(e.Act.MsgKind),
			addr:    e.Act.Addr,
			txn:     e.Act.Txn,
			size:    e.Act.Size,
		}}
	}
	p.events.reset(events)
	p.seq = s.Seq
	p.txnSeq = s.TxnSeq
	p.now = s.Now
	copy(p.nextSend, s.NextSend)
	p.txnCount.SetValue(s.Transactions)
	p.txnLatency.SetState(s.TxnLatency)
	p.txnMsgs.SetState(s.TxnMsgs)
	p.netMsgs.SetValue(s.NetMessages)
	for i := range p.kindCounts {
		p.kindCounts[i].SetValue(s.KindCounts[i])
	}
	p.swTraps.SetValue(s.SWTraps)
	p.readMiss.SetValue(s.ReadMisses)
	p.writeMiss.SetValue(s.WriteMisses)
	p.completed = nil
	return nil
}
