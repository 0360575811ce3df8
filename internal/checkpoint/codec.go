package checkpoint

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"locality/internal/cachesim"
	"locality/internal/cohsim"
	"locality/internal/netsim"
	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/stats"
	"locality/internal/wire"
)

// Wire layout (after Magic + Version):
//
//	fingerprint
//	PNow, WindowStart, ChunkDone, window kernel accounting
//	kernel state
//	transaction table — every *Transaction reachable from the protocol
//	  state or an in-flight message payload, deduplicated and sorted by
//	  ID; all other sites reference transactions by ID (0 = nil)
//	per-node processor states
//	protocol state (caches, directories, MSHRs, pending events, counters)
//	network state (message table, routers, queues, counters)
//
// Unsigned quantities are uvarints, possibly-negative ones zigzag
// varints, and floats 8-byte little-endian IEEE 754 bit patterns.
// Collections ordered by the producing Checkpoint methods (ascending
// address / (due, seq) / message discovery order) make the encoding
// canonical: re-encoding a decoded checkpoint is byte-identical.
//
// Each section is one method of sections, run by Write and Read alike,
// so every range and ordering check holds in both directions: Write
// refuses what Read would reject.

// Write streams the checkpoint to w in the wire format.
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s := sections{c: wire.NewEncoder(w, "checkpoint")}
	s.checkpoint(c)
	return s.c.End()
}

// WriteFile writes the checkpoint to path.
func WriteFile(path string, c *Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a checkpoint from r, validating every structural
// invariant. It never trusts a declared count for more than an
// incremental allocation, so truncated, corrupt, or adversarial
// inputs fail with an error rather than a panic or a huge allocation.
func Read(r io.Reader) (*Checkpoint, error) {
	c := &Checkpoint{}
	s := sections{c: wire.NewDecoder(r, "checkpoint")}
	s.checkpoint(c)
	if err := s.c.End(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ReadFile decodes the checkpoint at path.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// sections codes a checkpoint one section at a time. nodes and
// contexts are fixed by the fingerprint and bound later sections; txns
// is the decoded transaction table, by ID.
type sections struct {
	c               *wire.Codec
	nodes, contexts int
	txns            map[int64]*cohsim.Transaction
}

func (s *sections) checkpoint(ck *Checkpoint) {
	c := s.c
	c.Header(Magic, Version)
	s.fingerprint(&ck.FP)
	wire.Uvarint(c, &ck.PNow, maxTime, "cycle")
	wire.Uvarint(c, &ck.WindowStart, maxTime, "window origin")
	wire.Uvarint(c, &ck.ChunkDone, maxTime, "chunk offset")
	wire.Uvarint(c, &ck.KSWindow.Ticked, maxTime, "window ticked")
	wire.Uvarint(c, &ck.KSWindow.Skipped, maxTime, "window skipped")
	s.kernel(&ck.Kernel)
	s.txnTable(ck)
	wire.Slice(c, &ck.Procs, s.nodes, s.nodes, "processor count", s.proc)
	s.proto(&ck.Proto)
	s.net(&ck.Net)
}

// fingerprint also fixes the node and context counts. The placement
// must cover every node, which is checked as soon as its length is
// coded, so a header declaring a huge machine cannot make Read allocate
// per-node state the input does not back.
func (s *sections) fingerprint(f *Fingerprint) {
	c := s.c
	wire.Uvarint(c, &f.Radix, maxRadix, "radix")
	wire.Uvarint(c, &f.Dims, maxDims, "dims")
	wire.Uvarint(c, &f.Contexts, maxContexts, "contexts")
	c.String(&f.MappingName, maxNameLen, "mapping name")
	if c.Err() != nil {
		return
	}
	nodes, err := f.Nodes()
	if err == nil && f.Contexts < 1 {
		err = fmt.Errorf("checkpoint: context count %d, must be ≥ 1", f.Contexts)
	}
	if err != nil {
		c.Fail(err)
		return
	}
	wire.Slice(c, &f.Place, nodes, nodes, "placement length", func(_ int, p *int) {
		wire.Uvarint(c, p, nodes-1, "placement entry")
	})
	if c.Err() != nil {
		return
	}
	s.nodes, s.contexts = nodes, f.Contexts
	wire.Uvarint(c, &f.ClockRatio, maxEntries, "clock ratio")
	wire.Uvarint(c, &f.BufferDepth, maxEntries, "buffer depth")
	wire.Uvarint(c, &f.CacheLines, maxEntries, "cache lines")
	wire.Uvarint(c, &f.LineSize, maxEntries, "line size")
	wire.Uvarint(c, &f.HWPointers, maxEntries, "hardware pointers")
	wire.Uvarint(c, &f.LocalDelay, maxEntries, "local delay")
	wire.Uvarint(c, &f.ReadCompute, maxEntries, "read compute")
	wire.Uvarint(c, &f.WriteCompute, maxEntries, "write compute")
	c.String(&f.Workload, maxNameLen, "workload identity")
	wire.Byte(c, &f.Kernel, 1, "kernel mode")
}

func (s *sections) kernel(k *sim.KernelState) {
	c := s.c
	wire.Varint(c, &k.Now, math.MinInt64, math.MaxInt64, "kernel clock")
	wire.Uvarint(c, &k.Stats.Ticked, maxTime, "kernel ticked")
	wire.Uvarint(c, &k.Stats.Skipped, maxTime, "kernel skipped")
	wire.Varint(c, &k.Pending, -1, s.nodes+8, "kernel pending charge")
	present := k.Attr != nil
	c.Bool(&present, "attribution presence")
	if present {
		wire.Slice(c, &k.Attr, 0, s.nodes+8, "attribution length", func(_ int, v *int64) {
			wire.Uvarint(c, v, maxTime, "attribution charge")
		})
		wire.Uvarint(c, &k.AttrNone, maxTime, "unattributed charge")
	}
}

// txnTable codes the transaction table. Write builds it from the
// transactions collectTxns finds; Read rebuilds one Transaction per
// entry, for ref to hand out by ID.
func (s *sections) txnTable(ck *Checkpoint) {
	c := s.c
	var table []cohsim.TxnState
	if !c.Decoding() {
		txns, err := collectTxns(ck)
		if err != nil {
			c.Fail(err)
			return
		}
		table = make([]cohsim.TxnState, len(txns))
		for i, t := range txns {
			table[i] = t.State()
		}
	}
	wire.Slice(c, &table, 0, maxTxns, "transaction table length", func(i int, t *cohsim.TxnState) {
		wire.Uvarint(c, &t.ID, maxTime, "transaction ID")
		if t.ID < 1 || i > 0 && t.ID <= table[i-1].ID {
			c.Failf("transaction table not strictly ascending from ID 1 at entry %d", i)
		}
		wire.Uvarint(c, &t.Node, s.nodes-1, "transaction node")
		wire.Uvarint(c, &t.Addr, math.MaxUint64, "transaction address")
		c.Bool(&t.Write, "transaction write")
		wire.Varint(c, &t.Started, math.MinInt64, math.MaxInt64, "transaction start")
		wire.Varint(c, &t.Completed, math.MinInt64, math.MaxInt64, "transaction completion")
		wire.Uvarint(c, &t.NetMessages, maxMessages, "transaction message count")
		c.Bool(&t.Done, "transaction done")
		wire.Slice(c, &t.Waiters, 0, s.contexts, "waiter count", func(_ int, w *int) {
			wire.Uvarint(c, w, s.contexts-1, "waiter thread")
		})
		c.Bool(&t.PendingWrite, "transaction pending write")
	})
	if c.Decoding() {
		s.txns = make(map[int64]*cohsim.Transaction, len(table))
		for _, t := range table {
			s.txns[t.ID] = cohsim.NewTransactionFromState(t)
		}
	}
}

// collectTxns gathers every transaction reachable from the checkpoint —
// protocol structures and in-flight message payloads alike — and
// returns them sorted by ID. A message can reference a transaction
// present in no protocol structure (a writeback racing its
// transaction's completion), which is why the table is unified here
// rather than delegated to cohsim.
func collectTxns(c *Checkpoint) ([]*cohsim.Transaction, error) {
	byID := make(map[int64]*cohsim.Transaction)
	var list []*cohsim.Transaction
	add := func(t *cohsim.Transaction) error {
		if t == nil {
			return nil
		}
		if prev, ok := byID[t.ID]; ok {
			if prev != t {
				return fmt.Errorf("checkpoint: two transactions share ID %d", t.ID)
			}
			return nil
		}
		byID[t.ID] = t
		list = append(list, t)
		return nil
	}
	for i := range c.Proto.Nodes {
		n := &c.Proto.Nodes[i]
		for _, de := range n.Dir {
			if err := add(de.Txn); err != nil {
				return nil, err
			}
			for _, q := range de.Queue {
				if err := add(q.Txn); err != nil {
					return nil, err
				}
			}
		}
		for _, ms := range n.MSHR {
			if err := add(ms.Txn); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range c.Proto.Events {
		if err := add(e.Act.Txn); err != nil {
			return nil, err
		}
	}
	for i := range c.Net.Messages {
		msg, ok := c.Net.Messages[i].Payload.(cohsim.Msg)
		if !ok {
			return nil, fmt.Errorf("checkpoint: message %d payload is %T, want cohsim.Msg", i, c.Net.Messages[i].Payload)
		}
		if err := add(msg.Txn); err != nil {
			return nil, err
		}
	}
	sort.Slice(list, func(a, b int) bool { return list[a].ID < list[b].ID })
	return list, nil
}

// ref codes a transaction reference as its ID, 0 for nil.
func (s *sections) ref(t **cohsim.Transaction, what string) {
	var id int64
	if *t != nil {
		id = (*t).ID
	}
	wire.Uvarint(s.c, &id, maxTime, what)
	if id != 0 && s.c.Decoding() {
		if *t = s.txns[id]; *t == nil {
			s.c.Failf("%s references unknown transaction %d", what, id)
		}
	}
}

func (s *sections) proc(_ int, p *procsim.CheckpointState) {
	c := s.c
	wire.Slice(c, &p.Ctxs, s.contexts, s.contexts, "context count", func(_ int, cs *procsim.ContextState) {
		wire.Byte(c, &cs.State, math.MaxUint8, "context state")
		c.Bool(&cs.HasPending, "pending-op presence")
		if cs.HasPending {
			s.op(&cs.Pending)
		}
		c.Bool(&cs.HasLook, "lookahead presence")
		if cs.HasLook {
			s.op(&cs.Look)
		}
		wire.Uvarint(c, &cs.Remaining, maxEntries, "burst remainder")
		wire.Slice(c, &cs.WBPending, 0, maxQueue, "write-behind count", func(_ int, addr *uint64) {
			wire.Uvarint(c, addr, math.MaxUint64, "write-behind address")
		})
		wire.Uvarint(c, &cs.Fetched, maxTime, "fetch count")
	})
	wire.Uvarint(c, &p.Cur, maxContexts, "scheduled context")
	wire.Uvarint(c, &p.SwitchLeft, maxEntries, "switch countdown")
	wire.Varint(c, &p.LastTick, math.MinInt64, math.MaxInt64, "last tick")
	wire.Uvarint(c, &p.Busy, maxTime, "busy cycles")
	wire.Uvarint(c, &p.Switching, maxTime, "switch cycles")
	wire.Uvarint(c, &p.Idle, maxTime, "idle cycles")
	wire.Uvarint(c, &p.Accesses, maxTime, "access count")
	wire.Uvarint(c, &p.Misses, maxTime, "miss count")
	wire.Uvarint(c, &p.Prefetches, maxTime, "prefetch count")
	wire.Uvarint(c, &p.WriteBehinds, maxTime, "write-behind total")
}

func (s *sections) op(op *procsim.Op) {
	wire.Byte(s.c, &op.Kind, procsim.OpHalt, "op kind")
	wire.Uvarint(s.c, &op.Cycles, 1<<32, "op cycles")
	wire.Uvarint(s.c, &op.Addr, math.MaxUint64, "op address")
}

// protoNodeZero reports whether a node carries no serializable
// protocol state; such nodes are omitted from the wire and restored to
// their zero value.
func protoNodeZero(n *cohsim.NodeState) bool {
	return n.Cache.Zero() && len(n.Dir) == 0 && len(n.MSHR) == 0
}

func (s *sections) proto(p *cohsim.CheckpointState) {
	c := s.c
	// The node section is sparse: only nodes with non-zero state appear,
	// index-tagged, in ascending order. Nodes itself is dense in memory.
	count := 0
	if c.Decoding() {
		p.Nodes = make([]cohsim.NodeState, s.nodes)
	} else {
		for i := range p.Nodes {
			if !protoNodeZero(&p.Nodes[i]) {
				count++
			}
		}
	}
	wire.Uvarint(c, &count, s.nodes, "protocol node count")
	for k, prev := 0, -1; k < count && c.Err() == nil; k++ {
		i := prev + 1
		for !c.Decoding() && protoNodeZero(&p.Nodes[i]) {
			i++
		}
		wire.Uvarint(c, &i, s.nodes-1, "protocol node index")
		if i <= prev {
			c.Failf("protocol node indices not strictly ascending at %d", i)
		}
		if c.Err() != nil {
			return
		}
		s.node(i, &p.Nodes[i])
		prev = i
	}
	// Every pending event's sequence number was drawn from the protocol
	// sequence, so none may exceed it: a later event would reuse a
	// number a pending one holds, and their order would be ambiguous.
	var maxSeq int64
	wire.Slice(c, &p.Events, 0, maxEvents, "event count", func(i int, e *cohsim.EventState) {
		wire.Varint(c, &e.Due, math.MinInt64, math.MaxInt64, "event due time")
		wire.Uvarint(c, &e.Seq, maxTime, "event sequence")
		if i > 0 {
			if prev := &p.Events[i-1]; e.Due < prev.Due || e.Due == prev.Due && e.Seq <= prev.Seq {
				c.Failf("events not strictly ascending in (due, seq) at entry %d", i)
			}
		}
		maxSeq = max(maxSeq, e.Seq)
		a := &e.Act
		wire.Byte(c, &a.Kind, math.MaxUint8, "action kind")
		wire.Uvarint(c, &a.Node, s.nodes-1, "action node")
		wire.Uvarint(c, &a.Peer, s.nodes-1, "action peer")
		wire.Byte(c, &a.MsgKind, math.MaxUint8, "action message kind")
		wire.Uvarint(c, &a.Addr, math.MaxUint64, "action address")
		s.ref(&a.Txn, "action transaction")
		wire.Uvarint(c, &a.Size, maxQueue, "action size")
	})
	wire.Uvarint(c, &p.Seq, maxTime, "protocol sequence")
	if maxSeq > p.Seq {
		c.Failf("event sequence %d exceeds the protocol sequence %d", maxSeq, p.Seq)
	}
	wire.Uvarint(c, &p.TxnSeq, maxTime, "transaction sequence")
	wire.Varint(c, &p.Now, math.MinInt64, math.MaxInt64, "protocol clock")
	wire.Slice(c, &p.NextSend, s.nodes, s.nodes, "send slot count", func(_ int, v *int64) {
		wire.Varint(c, v, math.MinInt64, math.MaxInt64, "send slot")
	})
	wire.Uvarint(c, &p.Transactions, maxTime, "transaction count")
	s.mean(&p.TxnLatency, "transaction latency")
	s.mean(&p.TxnMsgs, "transaction messages")
	wire.Uvarint(c, &p.NetMessages, maxTime, "network message count")
	wire.Slice(c, &p.KindCounts, 0, maxCounters, "kind counter count", func(_ int, v *int64) {
		wire.Uvarint(c, v, maxTime, "kind counter")
	})
	wire.Uvarint(c, &p.SWTraps, maxTime, "software traps")
	wire.Uvarint(c, &p.ReadMisses, maxTime, "read misses")
	wire.Uvarint(c, &p.WriteMisses, maxTime, "write misses")
}

// node codes protocol node i: its cache lines by ascending frame, its
// directory and MSHR table by ascending address.
func (s *sections) node(i int, n *cohsim.NodeState) {
	c := s.c
	wire.Slice(c, &n.Cache.Lines, 0, maxEntries, "cache line count", func(j int, ln *cachesim.LineState) {
		wire.Uvarint(c, &ln.Index, maxEntries, "cache frame index")
		if j > 0 && ln.Index <= n.Cache.Lines[j-1].Index {
			c.Failf("cache frames of node %d not strictly ascending at entry %d", i, j)
		}
		wire.Uvarint(c, &ln.Tag, math.MaxUint64, "cache tag")
		wire.Byte(c, &ln.State, math.MaxUint8, "cache line state")
	})
	wire.Uvarint(c, &n.Cache.Hits, maxTime, "cache hits")
	wire.Uvarint(c, &n.Cache.Misses, maxTime, "cache misses")
	wire.Uvarint(c, &n.Cache.Evictions, maxTime, "cache evictions")
	wire.Slice(c, &n.Dir, 0, maxEntries, "directory entry count", func(j int, de *cohsim.DirEntryState) {
		wire.Uvarint(c, &de.Addr, math.MaxUint64, "directory address")
		if j > 0 && de.Addr <= n.Dir[j-1].Addr {
			c.Failf("directory of node %d not strictly ascending at entry %d", i, j)
		}
		wire.Byte(c, &de.State, math.MaxUint8, "directory state")
		wire.Slice(c, &de.Sharers, 0, s.nodes, "sharer count", func(_ int, v *int) {
			wire.Uvarint(c, v, s.nodes-1, "sharer")
		})
		wire.Varint(c, &de.Owner, -1, s.nodes-1, "directory owner")
		wire.Byte(c, &de.Busy, math.MaxUint8, "directory busy state")
		wire.Slice(c, &de.PendingInv, 0, s.nodes, "pending invalidation count", func(_ int, v *int) {
			wire.Uvarint(c, v, s.nodes-1, "pending invalidation")
		})
		wire.Varint(c, &de.Requester, -1, s.nodes-1, "directory requester")
		s.ref(&de.Txn, "directory transaction")
		wire.Slice(c, &de.Queue, 0, maxQueue, "queued request count", func(_ int, q *cohsim.QueuedReqState) {
			wire.Byte(c, &q.Kind, math.MaxUint8, "queued request kind")
			wire.Uvarint(c, &q.From, s.nodes-1, "queued requester")
			s.ref(&q.Txn, "queued transaction")
		})
	})
	wire.Slice(c, &n.MSHR, 0, maxEntries, "MSHR count", func(j int, ms *cohsim.MSHRState) {
		wire.Uvarint(c, &ms.Addr, math.MaxUint64, "MSHR address")
		if j > 0 && ms.Addr <= n.MSHR[j-1].Addr {
			c.Failf("MSHR table of node %d not strictly ascending at entry %d", i, j)
		}
		s.ref(&ms.Txn, "MSHR transaction")
	})
}

func (s *sections) net(n *netsim.CheckpointState) {
	c := s.c
	wire.Slice(c, &n.Messages, 0, maxMessages, "message count", func(_ int, ms *netsim.MessageState) {
		wire.Uvarint(c, &ms.Src, maxNodes, "message source")
		wire.Uvarint(c, &ms.Dst, maxNodes, "message destination")
		wire.Uvarint(c, &ms.Size, maxQueue, "message size")
		msg, _ := ms.Payload.(cohsim.Msg) // collectTxns vetted every payload Write sees
		wire.Byte(c, &msg.Kind, cohsim.MsgWB, "payload kind")
		wire.Uvarint(c, &msg.Addr, math.MaxUint64, "payload address")
		wire.Uvarint(c, &msg.From, maxNodes, "payload source")
		s.ref(&msg.Txn, "payload transaction")
		if c.Decoding() {
			ms.Payload = msg
		}
		wire.Varint(c, &ms.EnqueuedAt, math.MinInt64, math.MaxInt64, "enqueue time")
		wire.Varint(c, &ms.InjectedAt, math.MinInt64, math.MaxInt64, "injection time")
		wire.Uvarint(c, &ms.Hops, maxNodes, "message hops")
		wire.Uvarint(c, &ms.Remaining, maxQueue, "flits remaining")
		wire.Varint(c, &ms.CurDim, -1, maxDims, "routing dimension")
		wire.Uvarint(c, &ms.VCClass, 1, "virtual channel class")
	})
	// Flits, output owners, queues and local deliveries name messages by
	// table index; with an empty table the range is empty.
	last := len(n.Messages) - 1

	// Router and injection-queue entries are sparse: each is tagged with
	// its index, and indices must be strictly ascending (which also
	// guarantees canonical encoding and no duplicates).
	wire.Slice(c, &n.Routers, 0, s.nodes, "router count", func(j int, r *netsim.RouterState) {
		wire.Uvarint(c, &r.Index, s.nodes-1, "router index")
		if j > 0 && r.Index <= n.Routers[j-1].Index {
			c.Failf("router indices not strictly ascending at %d", r.Index)
		}
		wire.Slice(c, &r.Inputs, 0, maxPorts, "input buffer count", func(_ int, flits *[]netsim.FlitState) {
			wire.Slice(c, flits, 0, maxQueue, "buffered flit count", func(_ int, f *netsim.FlitState) {
				wire.Uvarint(c, &f.Msg, last, "buffered flit")
				wire.Uvarint(c, &f.Seq, maxQueue, "flit sequence")
				wire.Varint(c, &f.ArrivedAt, math.MinInt64, math.MaxInt64, "flit arrival")
			})
		})
		wire.Slice(c, &r.Owner, 0, maxPorts, "owner count", func(_ int, o *int) {
			wire.Varint(c, o, -1, last, "output owner")
		})
		wire.Slice(c, &r.OwnerInput, 0, maxPorts, "owner input count", func(_ int, v *int) {
			wire.Uvarint(c, v, maxPorts, "owner input")
		})
		wire.Slice(c, &r.LastGranted, 0, maxPorts, "arbitration rotor count", func(_ int, v *int) {
			wire.Uvarint(c, v, maxPorts, "arbitration rotor")
		})
		wire.Slice(c, &r.LastVC, 0, maxPorts, "VC rotor count", func(_ int, v *int) {
			wire.Uvarint(c, v, 1, "VC rotor")
		})
	})
	wire.Slice(c, &n.InjectQ, 0, s.nodes, "injection queue count", func(j int, q *netsim.InjectQState) {
		wire.Uvarint(c, &q.Node, s.nodes-1, "injection queue node")
		if j > 0 && q.Node <= n.InjectQ[j-1].Node {
			c.Failf("injection queue nodes not strictly ascending at %d", q.Node)
		}
		wire.Slice(c, &q.Msgs, 1, maxMessages, "queued message count", func(_ int, m *int) {
			wire.Uvarint(c, m, last, "queued message")
		})
	})
	wire.Slice(c, &n.Local, 0, maxMessages, "local delivery count", func(_ int, e *netsim.LocalState) {
		wire.Uvarint(c, &e.Msg, last, "local delivery")
		wire.Varint(c, &e.Due, math.MinInt64, math.MaxInt64, "local due time")
	})
	wire.Varint(c, &n.Now, math.MinInt64, math.MaxInt64, "network clock")
	wire.Varint(c, &n.LastProgress, math.MinInt64, math.MaxInt64, "last progress")
	wire.Uvarint(c, &n.FlitsIn, maxTime, "flits in")
	wire.Uvarint(c, &n.FlitsOut, maxTime, "flits out")
	wire.Varint(c, &n.StatsSince, math.MinInt64, math.MaxInt64, "stats origin")
	wire.Uvarint(c, &n.Injected, maxTime, "injected count")
	wire.Uvarint(c, &n.Delivered, maxTime, "delivered count")
	wire.Uvarint(c, &n.FlitHops, maxTime, "flit hops")
	s.mean(&n.Latency, "latency")
	s.mean(&n.NetLatency, "network latency")
	s.mean(&n.Hops, "hop distance")
	s.mean(&n.Sizes, "message size")
}

func (s *sections) mean(m *stats.MeanState, what string) {
	wire.Uvarint(s.c, &m.N, maxTime, what)
	s.c.Float(&m.Mean, what)
	s.c.Float(&m.M2, what)
	s.c.Float(&m.Min, what)
	s.c.Float(&m.Max, what)
}
