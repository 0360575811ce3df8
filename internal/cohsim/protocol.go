// Package cohsim implements a directory-based cache-coherence protocol
// engine in the style of the reference architecture's LimitLESS scheme:
// each cache line has a home node holding a directory entry with a
// bounded number of hardware sharer pointers; overflow falls back to a
// (modeled) software handler with an extra latency penalty. Caches run
// an MSI protocol. The engine is driven by a Transport (the network
// simulator in production, a loopback in tests) and exposes the
// transaction-level measurements (latency, messages per transaction,
// message sizes) the paper's models consume: communication transactions
// here are exactly the paper's cache coherency transactions.
//
// All protocol timing is in processor cycles; the machine layer
// converts network delivery times.
package cohsim

import (
	"fmt"

	"locality/internal/cachesim"
	"locality/internal/stats"
)

// MsgKind enumerates protocol message types.
type MsgKind uint8

const (
	// MsgRReq is a read request, requester → home (control).
	MsgRReq MsgKind = iota
	// MsgRData is a read-data reply, home → requester (data).
	MsgRData
	// MsgWReq is a write-ownership (or upgrade) request, requester →
	// home (control).
	MsgWReq
	// MsgWGrantData grants ownership with data, home → requester (data).
	MsgWGrantData
	// MsgWGrant grants ownership without data to a current sharer
	// (upgrade), home → requester (control).
	MsgWGrant
	// MsgInv invalidates a shared copy, home → sharer (control).
	MsgInv
	// MsgInvAck acknowledges an invalidation, sharer → home (control).
	MsgInvAck
	// MsgFetch asks the owner to write back and downgrade to Shared,
	// home → owner (control).
	MsgFetch
	// MsgFetchInv asks the owner to write back and invalidate, home →
	// owner (control).
	MsgFetchInv
	// MsgWBData carries data back to home in response to a fetch,
	// owner → home (data).
	MsgWBData
	// MsgWB is a victim writeback of a Modified line on eviction,
	// owner → home (data).
	MsgWB
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	names := [...]string{"RReq", "RData", "WReq", "WGrantData", "WGrant", "Inv", "InvAck", "Fetch", "FetchInv", "WBData", "WB"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// IsData reports whether the message carries a cache line.
func (k MsgKind) IsData() bool {
	switch k {
	case MsgRData, MsgWGrantData, MsgWBData, MsgWB:
		return true
	}
	return false
}

// Msg is one protocol message.
type Msg struct {
	Kind MsgKind
	Addr uint64
	// From is the sending node.
	From int
	// Txn is the transaction this message serves, when known by the
	// sender (requester-side messages); home-side messages recover the
	// transaction from directory state.
	Txn *Transaction
}

// Transport delivers protocol messages between nodes. Implementations
// must eventually call Protocol.Deliver at the destination; messages
// between a node and itself must also be delivered (with whatever
// local latency the transport models) but are not network messages.
type Transport interface {
	Send(src, dst, sizeFlits int, m Msg)
}

// Transaction is one communication transaction: a processor-initiated
// coherence operation tracked from issue to completion.
type Transaction struct {
	ID    int64
	Node  int
	Addr  uint64
	Write bool
	// Started and Completed are in processor cycles.
	Started, Completed int64
	// NetMessages counts fabric messages (src ≠ dst) attributed to
	// this transaction, including invalidations, fetches and evictions
	// it triggered.
	NetMessages int
	done        bool
	waiters     []int // threads at Node blocked on this transaction
	// pendingWrite is set when a write access coalesced onto an
	// outstanding read: the write transaction auto-issues on completion.
	pendingWrite bool
}

// Protocol timing and message sizes, calibrated once against the
// reference architecture so the simulated machine reproduces its
// measured message size B ≈ 12 flits and g ≈ 3.2 messages per
// transaction. Latencies are in processor cycles.
const (
	controlFlits = 8  // size of a request, grant, invalidation or ack
	dataFlits    = 24 // size of a message carrying a cache line

	reqLatency       = 2  // miss detection → request injected
	dirLatency       = 4  // request arrival at home → directory action
	memLatency       = 6  // extra for replies that read memory
	cacheRespLatency = 2  // Inv/Fetch arrival → response injected
	fillLatency      = 2  // data arrival at requester → transaction complete
	swTrapLatency    = 40 // extra home latency when the sharer set overflows

	// sendOccupancy serializes outgoing messages through each node's
	// controller: successive sends from one node are spaced at least
	// this many cycles apart. This is the controller occupancy of the
	// reference architecture's network interface; it also smooths
	// invalidation bursts the way a real controller does.
	sendOccupancy = 4
)

// Config parameterizes the protocol engine.
type Config struct {
	// Nodes is the machine size.
	Nodes int
	// Cache configures each node's cache.
	Cache cachesim.Config
	// Home maps a line address to its home node.
	Home func(addr uint64) int
	// HWPointers is the number of hardware sharer pointers per
	// directory entry before the software-extension path triggers
	// (LimitLESS). Zero means a full-map directory (never traps).
	HWPointers int
	// OnReady is invoked once per blocked thread when its transaction
	// completes.
	OnReady func(node, thread int, now int64)
	// OnComplete, if set, observes every completed transaction.
	OnComplete func(txn *Transaction)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cohsim: node count %d, must be ≥ 1", c.Nodes)
	}
	if c.Home == nil {
		return fmt.Errorf("cohsim: nil Home function")
	}
	if c.HWPointers < 0 {
		return fmt.Errorf("cohsim: negative hardware pointer count %d", c.HWPointers)
	}
	if _, err := cachesim.New(c.Cache); err != nil {
		return err
	}
	return nil
}

// directory entry states.
type dirState uint8

const (
	dirIdle dirState = iota
	dirShared
	dirModified
)

// busy sub-states: a directory entry serving a multi-step operation.
type busyKind uint8

const (
	busyNone          busyKind = iota
	busyFetchRead              // fetch outstanding on behalf of a read
	busyFetchWrite             // fetch-invalidate outstanding on behalf of a write
	busyInvalidations          // invalidation acks outstanding for a write
	busyReply                  // a deferred reply is being composed/sent
)

type queuedReq struct {
	kind MsgKind
	from int
	txn  *Transaction
}

type dirEntry struct {
	addr    uint64
	state   dirState
	sharers []int
	owner   int
	busy    busyKind
	// pendingInv lists the sharers whose invalidation acks are still
	// outstanding for the current busyInvalidations operation.
	pendingInv []int
	// requester and txn identify the operation being served.
	requester int
	txn       *Transaction
	queue     []queuedReq
}

func (e *dirEntry) hasSharer(n int) bool {
	for _, s := range e.sharers {
		if s == n {
			return true
		}
	}
	return false
}

func (e *dirEntry) addSharer(n int) {
	if !e.hasSharer(n) {
		e.sharers = append(e.sharers, n)
	}
}

// node is the per-node protocol state. mshr maps a line to the node's
// in-flight transaction on it.
type node struct {
	cache *cachesim.Cache
	dir   map[uint64]*dirEntry
	mshr  map[uint64]*Transaction
}

// actKind discriminates the scheduled protocol steps. Events hold
// plain action records rather than closures so the pending queue can be
// serialized into a checkpoint and rebuilt exactly on restore.
type actKind uint8

const (
	// actTransportSend hands a fully-accounted message to the transport
	// when the sending controller's occupancy slot arrives. node/peer
	// are src/dst; size is the flit count decided at send time.
	actTransportSend actKind = iota
	// actIssue sends a transaction's initial (or chained) request after
	// the miss-handling latency. node/peer are requester/home.
	actIssue
	// actHomeAction performs the directory transition for a request
	// after the directory (and any software-trap) latency. node/peer
	// are home/requester.
	actHomeAction
	// actSharerInv drops a shared copy and acknowledges after the cache
	// response latency. node/peer are sharer/home.
	actSharerInv
	// actOwnerFetch downgrades or invalidates at the owner and responds
	// with data. node/peer are owner/home; msgKind is the fetch kind.
	actOwnerFetch
	// actHomeReply sends a composed home reply and releases the entry.
	// node/peer are home/requester.
	actHomeReply
	// actGrantFill installs a granted line at the requester after the
	// fill latency. node is the requester; msgKind the grant kind.
	actGrantFill
)

// action is one serializable scheduled protocol step; which fields are
// meaningful depends on kind (see the actKind constants).
type action struct {
	kind    actKind
	node    int
	peer    int
	msgKind MsgKind
	addr    uint64
	txn     *Transaction
	size    int
}

// Protocol is the machine-wide coherence engine.
type Protocol struct {
	cfg       Config
	nodes     []node
	transport Transport
	events    eventQueue
	seq       int64
	txnSeq    int64
	now       int64
	// nextSend[n] is the earliest cycle node n's controller can send
	// its next message (send serialization).
	nextSend []int64

	// Statistics.
	txnCount   stats.Counter
	txnLatency stats.Mean
	txnMsgs    stats.Mean
	netMsgs    stats.Counter
	kindCounts [MsgWB + 1]stats.Counter // fabric messages by kind
	swTraps    stats.Counter
	readMiss   stats.Counter
	writeMiss  stats.Counter
	completed  []*Transaction
	keepTxns   bool
}

// New builds the protocol engine. The transport is attached separately
// with SetTransport so the machine can wire circular references.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Per-node state materializes lazily: the nodes slice holds zero
	// values (nil cache, nil dir/MSHR maps) until a node is touched, so
	// construction cost and resident memory track touched nodes, not
	// machine size — the large zeroed slice is untouched OS pages.
	p := &Protocol{cfg: cfg, nodes: make([]node, cfg.Nodes), nextSend: make([]int64, cfg.Nodes)}
	return p, nil
}

// node returns node i, materializing its cache on first touch (the
// cache is itself sparse, so this is a handful of words). The dir and
// MSHR maps stay nil until their writers first insert; reads and
// deletes on nil maps are safe.
func (p *Protocol) node(i int) *node {
	n := &p.nodes[i]
	if n.cache == nil {
		n.cache = cachesim.MustNew(p.cfg.Cache)
	}
	return n
}

// setMSHR records txn as the node's in-flight transaction on line,
// creating the map on first use.
func (n *node) setMSHR(line uint64, txn *Transaction) {
	if n.mshr == nil {
		n.mshr = make(map[uint64]*Transaction)
	}
	n.mshr[line] = txn
}

// SetTransport attaches the message transport.
func (p *Protocol) SetTransport(t Transport) { p.transport = t }

// KeepTransactions makes the engine retain every completed transaction
// for post-run analysis (tests, measurement harness).
func (p *Protocol) KeepTransactions(keep bool) { p.keepTxns = keep }

// Completed returns retained transactions (see KeepTransactions).
func (p *Protocol) Completed() []*Transaction { return p.completed }

// Cache exposes a node's cache for workload setup and invariant checks.
func (p *Protocol) Cache(nodeID int) *cachesim.Cache { return p.node(nodeID).cache }

// schedule queues an action to run at now+delay processor cycles.
func (p *Protocol) schedule(delay int, a action) {
	p.seq++
	p.events.push(p.now+int64(delay), p.seq, a)
}

// Tick advances protocol time to nowP, executing all due actions.
func (p *Protocol) Tick(nowP int64) {
	p.now = nowP
	for p.events.due() <= nowP {
		p.fire(p.events.pop(), nowP)
	}
}

// fire executes one scheduled action. Each branch reproduces exactly
// what the pre-checkpoint closure for that site did; any state an
// action needs beyond its record is re-derived from protocol state
// (directory entries are never deleted, so entry lookups are stable).
func (p *Protocol) fire(a action, now int64) {
	switch a.kind {
	case actTransportSend:
		p.transport.Send(a.node, a.peer, a.size,
			Msg{Kind: a.msgKind, Addr: a.addr, From: a.node, Txn: a.txn})
	case actIssue:
		p.send(a.node, a.peer, a.msgKind, a.addr, a.txn)
	case actHomeAction:
		p.homeAction(a.node, p.entry(a.node, a.addr), a.msgKind, a.peer, a.txn)
	case actSharerInv:
		p.node(a.node).cache.Invalidate(a.addr)
		p.send(a.node, a.peer, MsgInvAck, a.addr, a.txn)
	case actOwnerFetch:
		cache := p.node(a.node).cache
		switch cache.Lookup(a.addr) {
		case cachesim.Modified:
			if a.msgKind == MsgFetch {
				cache.SetState(a.addr, cachesim.Shared)
			} else {
				cache.Invalidate(a.addr)
			}
		default:
			// Eviction writeback crossed the fetch; nothing to do.
			return
		}
		p.send(a.node, a.peer, MsgWBData, a.addr, a.txn)
	case actHomeReply:
		e := p.entry(a.node, a.addr)
		p.send(a.node, a.peer, a.msgKind, a.addr, a.txn)
		e.busy = busyNone
		p.drainQueue(a.node, e)
	case actGrantFill:
		n := p.node(a.node)
		txn := a.txn
		switch a.msgKind {
		case MsgRData:
			p.installLine(a.node, a.addr, cachesim.Shared, txn)
		case MsgWGrantData:
			p.installLine(a.node, a.addr, cachesim.Modified, txn)
		case MsgWGrant:
			if n.cache.Lookup(a.addr) != cachesim.Invalid {
				n.cache.SetState(a.addr, cachesim.Modified)
			} else {
				// The shared copy was displaced after the upgrade was
				// requested; treat the grant as carrying data.
				p.installLine(a.node, a.addr, cachesim.Modified, txn)
			}
		}
		p.completeTxn(a.node, txn, now)
	default:
		panic(fmt.Sprintf("cohsim: unknown action kind %d", a.kind))
	}
}

// NextEvent implements sim.Component: the due cycle of the earliest
// pending scheduled action — protocol hops and controller occupancy
// slots both live on the one event queue — or
// sim.Never when the queue is empty. Message deliveries arriving from
// the transport enqueue onto the queue with delay ≥ 1, so its minimum
// is always a complete account of the protocol's future work.
func (p *Protocol) NextEvent() int64 { return p.events.due() }

// send transmits a protocol message, attributing fabric messages to
// txn. Outgoing messages serialize through the node's controller: each
// send occupies it for sendOccupancy cycles, so bursts (e.g. a fan of
// invalidations) are spaced rather than injected back to back.
func (p *Protocol) send(src, dst int, kind MsgKind, addr uint64, txn *Transaction) {
	size := controlFlits
	if kind.IsData() {
		size = dataFlits
	}
	if src != dst {
		p.netMsgs.Inc()
		p.kindCounts[kind].Inc()
		if txn != nil {
			txn.NetMessages++
		}
	}
	when := p.now
	if p.nextSend[src] > when {
		when = p.nextSend[src]
	}
	p.nextSend[src] = when + sendOccupancy
	if when <= p.now {
		p.transport.Send(src, dst, size, Msg{Kind: kind, Addr: addr, From: src, Txn: txn})
		return
	}
	p.schedule(int(when-p.now), action{kind: actTransportSend, node: src, peer: dst, msgKind: kind, addr: addr, txn: txn, size: size})
}

// Access is the processor's entry point: thread on nodeID touches addr.
// It returns hit = true when the access completes immediately. On a
// miss the thread must block; OnReady fires when it may retry (the
// line is then present in the right state).
func (p *Protocol) Access(nodeID, thread int, addr uint64, write bool, now int64) (hit bool) {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if write {
		if n.cache.AccessWrite(addr) {
			return true
		}
	} else {
		if n.cache.AccessRead(addr) {
			return true
		}
	}
	// Coalesce with an outstanding transaction on the same line.
	if txn, ok := n.mshr[line]; ok {
		txn.waiters = append(txn.waiters, thread)
		if write && !txn.Write {
			txn.pendingWrite = true
		}
		return false
	}
	txn := &Transaction{Node: nodeID, Addr: line, Write: write, Started: now}
	txn.waiters = append(txn.waiters, thread)
	p.start(n, txn)
	return false
}

// Prefetch starts a non-binding read transaction for the line
// containing addr without blocking any thread: the data-prefetch
// latency-tolerance mechanism of Section 2.1. If the line is already
// present or a transaction is already outstanding it does nothing. A
// later Access to the line coalesces onto the in-flight prefetch and
// waits only for the remaining latency. It reports whether a new
// transaction was issued.
func (p *Protocol) Prefetch(nodeID int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if n.cache.Lookup(line) != cachesim.Invalid {
		return false
	}
	if _, ok := n.mshr[line]; ok {
		return false
	}
	p.start(n, &Transaction{Node: nodeID, Addr: line, Write: false, Started: now})
	return true
}

// WriteBehind starts a non-blocking write-ownership transaction for
// the line containing addr: the weak-ordering latency-tolerance
// mechanism of Section 2.1. The issuing thread continues immediately;
// a later Access (typically from a fence draining outstanding writes)
// coalesces onto the in-flight transaction. If the line is already
// Modified nothing happens; if a read transaction is outstanding the
// write chains behind it. It reports whether new work was initiated.
func (p *Protocol) WriteBehind(nodeID int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if n.cache.Lookup(line) == cachesim.Modified {
		return false
	}
	if txn, ok := n.mshr[line]; ok {
		if !txn.Write && !txn.pendingWrite {
			txn.pendingWrite = true
			return true
		}
		return false
	}
	p.start(n, &Transaction{Node: nodeID, Addr: line, Write: true, Started: now})
	return true
}

// Outstanding reports whether a transaction is in flight at nodeID for
// the line containing addr (used by fences).
func (p *Protocol) Outstanding(nodeID int, addr uint64) bool {
	n := p.node(nodeID)
	_, ok := n.mshr[n.cache.LineAddr(addr)]
	return ok
}

// Join registers thread as a waiter on the in-flight transaction for
// addr's line, if any, and reports whether the thread must block (the
// fence primitive for weak ordering). Without an in-flight transaction
// it returns false immediately.
func (p *Protocol) Join(nodeID, thread int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	txn, ok := n.mshr[n.cache.LineAddr(addr)]
	if !ok {
		return false
	}
	txn.waiters = append(txn.waiters, thread)
	return true
}

// start records a new transaction in the node's MSHR, assigns its
// machine-wide ID, counts the miss, and issues its request.
func (p *Protocol) start(n *node, txn *Transaction) {
	n.setMSHR(txn.Addr, txn)
	p.txnSeq++
	txn.ID = p.txnSeq
	if txn.Write {
		p.writeMiss.Inc()
	} else {
		p.readMiss.Inc()
	}
	p.issue(txn)
}

// issue sends the transaction's initial request after the miss-handling
// latency.
func (p *Protocol) issue(txn *Transaction) {
	home := p.cfg.Home(txn.Addr)
	kind := MsgRReq
	if txn.Write {
		kind = MsgWReq
	}
	p.schedule(reqLatency, action{kind: actIssue, node: txn.Node, peer: home, msgKind: kind, addr: txn.Addr, txn: txn})
}

// Deliver hands an arriving protocol message to its destination node.
// The machine layer calls this from the network delivery callback with
// the processor-cycle arrival time.
func (p *Protocol) Deliver(dst int, m Msg, nowP int64) {
	p.now = nowP
	switch m.Kind {
	case MsgRReq, MsgWReq:
		p.homeRequest(dst, m)
	case MsgRData, MsgWGrantData, MsgWGrant:
		p.requesterGrant(dst, m)
	case MsgInv:
		p.sharerInvalidate(dst, m)
	case MsgInvAck:
		p.homeInvAck(dst, m)
	case MsgFetch, MsgFetchInv:
		p.ownerFetch(dst, m)
	case MsgWBData, MsgWB:
		p.homeWriteback(dst, m)
	default:
		panic(fmt.Sprintf("cohsim: unknown message kind %v", m.Kind))
	}
}

// entry returns (creating if needed) the directory entry at home for a
// line.
func (p *Protocol) entry(home int, addr uint64) *dirEntry {
	n := &p.nodes[home]
	e, ok := n.dir[addr]
	if !ok {
		if n.dir == nil {
			n.dir = make(map[uint64]*dirEntry)
		}
		e = &dirEntry{addr: addr, owner: -1}
		n.dir[addr] = e
	}
	return e
}

// homeRequest processes an RReq or WReq arriving at the home node.
func (p *Protocol) homeRequest(home int, m Msg) {
	e := p.entry(home, m.Addr)
	if e.busy != busyNone {
		e.queue = append(e.queue, queuedReq{kind: m.Kind, from: m.From, txn: m.Txn})
		return
	}
	delay := dirLatency
	if p.overflowed(e) {
		delay += swTrapLatency
		p.swTraps.Inc()
	}
	p.schedule(delay, action{kind: actHomeAction, node: home, peer: m.From, msgKind: m.Kind, addr: m.Addr, txn: m.Txn})
}

// overflowed reports whether the sharer set exceeds the hardware
// pointer budget (LimitLESS software-extension condition).
func (p *Protocol) overflowed(e *dirEntry) bool {
	return p.cfg.HWPointers > 0 && len(e.sharers) > p.cfg.HWPointers
}

// homeAction performs the directory state transition for a request.
func (p *Protocol) homeAction(home int, e *dirEntry, kind MsgKind, from int, txn *Transaction) {
	if e.busy != busyNone {
		// A writeback or race re-busied the entry while this action was
		// queued behind the directory latency; requeue.
		e.queue = append(e.queue, queuedReq{kind: kind, from: from, txn: txn})
		return
	}
	switch kind {
	case MsgRReq:
		switch e.state {
		case dirIdle, dirShared:
			e.state = dirShared
			e.addSharer(from)
			p.homeReply(home, e, memLatency, from, MsgRData, txn)
		case dirModified:
			e.busy = busyFetchRead
			e.requester = from
			e.txn = txn
			p.send(home, e.owner, MsgFetch, e.addr, txn)
		}
	case MsgWReq:
		switch e.state {
		case dirIdle:
			e.state = dirModified
			e.owner = from
			p.homeReply(home, e, memLatency, from, MsgWGrantData, txn)
		case dirShared:
			// Invalidate every other sharer, then grant.
			requesterHolds := e.hasSharer(from)
			e.pendingInv = e.pendingInv[:0]
			for _, s := range e.sharers {
				if s != from {
					e.pendingInv = append(e.pendingInv, s)
				}
			}
			if len(e.pendingInv) == 0 {
				e.state = dirModified
				e.sharers = e.sharers[:0]
				e.owner = from
				grant := MsgWGrantData
				if requesterHolds {
					grant = MsgWGrant
				}
				p.homeReply(home, e, memLatency, from, grant, txn)
				return
			}
			e.busy = busyInvalidations
			e.requester = from
			e.txn = txn
			for _, s := range e.pendingInv {
				p.send(home, s, MsgInv, e.addr, txn)
			}
		case dirModified:
			e.busy = busyFetchWrite
			e.requester = from
			e.txn = txn
			p.send(home, e.owner, MsgFetchInv, e.addr, txn)
		}
	default:
		panic(fmt.Sprintf("cohsim: homeAction on %v", kind))
	}
}

// sharerInvalidate handles MsgInv at a sharer: drop the copy (if still
// present; it may have been silently evicted) and acknowledge.
func (p *Protocol) sharerInvalidate(nodeID int, m Msg) {
	p.schedule(cacheRespLatency, action{kind: actSharerInv, node: nodeID, peer: m.From, addr: m.Addr, txn: m.Txn})
}

// homeInvAck counts invalidation acknowledgments; the last one grants
// ownership to the waiting writer.
func (p *Protocol) homeInvAck(home int, m Msg) {
	e := p.entry(home, m.Addr)
	if e.busy != busyInvalidations {
		panic(fmt.Sprintf("cohsim: unexpected InvAck at home %d addr %#x (busy=%d)", home, m.Addr, e.busy))
	}
	found := false
	for i, s := range e.pendingInv {
		if s == m.From {
			e.pendingInv = append(e.pendingInv[:i], e.pendingInv[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("cohsim: InvAck from non-pending node %d at home %d addr %#x", m.From, home, m.Addr))
	}
	if len(e.pendingInv) > 0 {
		return
	}
	requesterHolds := e.hasSharer(e.requester)
	e.state = dirModified
	e.sharers = e.sharers[:0]
	e.owner = e.requester
	e.busy = busyNone
	grant := MsgWGrantData
	if requesterHolds {
		grant = MsgWGrant
	}
	p.send(home, e.requester, grant, m.Addr, e.txn)
	p.drainQueue(home, e)
}

// ownerFetch handles Fetch/FetchInv at the (former) owner. If the line
// was already evicted the writeback in flight will satisfy the home.
func (p *Protocol) ownerFetch(nodeID int, m Msg) {
	p.schedule(cacheRespLatency, action{kind: actOwnerFetch, node: nodeID, peer: m.From, msgKind: m.Kind, addr: m.Addr, txn: m.Txn})
}

// homeWriteback handles WBData (fetch response) and WB (victim
// writeback) at the home node.
func (p *Protocol) homeWriteback(home int, m Msg) {
	e := p.entry(home, m.Addr)
	switch e.busy {
	case busyFetchRead:
		e.state = dirShared
		e.sharers = append(e.sharers[:0], e.owner, e.requester)
		e.owner = -1
		p.homeReply(home, e, memLatency, e.requester, MsgRData, e.txn)
	case busyFetchWrite:
		e.state = dirModified
		e.sharers = e.sharers[:0]
		e.owner = e.requester
		p.homeReply(home, e, memLatency, e.requester, MsgWGrantData, e.txn)
	default:
		// Victim writeback with no operation outstanding.
		if e.state == dirModified && e.owner == m.From {
			e.state = dirIdle
			e.owner = -1
		}
		p.drainQueue(home, e)
	}
}

// homeReply keeps the directory entry busy while a deferred reply is
// composed, sends it, then releases the entry. Serving the next queued
// request only after the reply is on the wire (together with the
// transport's per source-destination FIFO ordering) guarantees that a
// later fetch or invalidation can never overtake the grant it depends
// on.
func (p *Protocol) homeReply(home int, e *dirEntry, delay, dst int, kind MsgKind, txn *Transaction) {
	e.busy = busyReply
	p.schedule(delay, action{kind: actHomeReply, node: home, peer: dst, msgKind: kind, addr: e.addr, txn: txn})
}

// drainQueue re-dispatches requests that queued while the entry was
// busy. Each dispatched request may re-busy the entry, leaving the
// remainder queued.
func (p *Protocol) drainQueue(home int, e *dirEntry) {
	for e.busy == busyNone && len(e.queue) > 0 {
		q := e.queue[0]
		// Shift down in place so the queue's array is reused.
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = queuedReq{}
		e.queue = e.queue[:n]
		p.homeAction(home, e, q.kind, q.from, q.txn)
	}
}

// requesterGrant completes a transaction at the requester: install or
// upgrade the line, wake the blocked threads.
func (p *Protocol) requesterGrant(nodeID int, m Msg) {
	p.schedule(fillLatency, action{kind: actGrantFill, node: nodeID, msgKind: m.Kind, addr: m.Addr, txn: m.Txn})
}

// installLine installs a line, emitting a victim writeback for any
// Modified line it displaces (attributed to the causing transaction).
func (p *Protocol) installLine(nodeID int, addr uint64, s cachesim.State, txn *Transaction) {
	ev, had := p.node(nodeID).cache.Install(addr, s)
	if had && ev.State == cachesim.Modified {
		p.send(nodeID, p.cfg.Home(ev.LineAddr), MsgWB, ev.LineAddr, txn)
	}
}

// completeTxn finalizes a transaction, wakes its waiters, and chains a
// coalesced write if one arrived while a read was outstanding.
func (p *Protocol) completeTxn(nodeID int, txn *Transaction, now int64) {
	if txn.done {
		panic(fmt.Sprintf("cohsim: transaction %d completed twice", txn.ID))
	}
	n := &p.nodes[nodeID]
	if txn.pendingWrite {
		// A write coalesced behind this read: issue the upgrade now,
		// carrying the waiters along. Statistics count the chained
		// operation as part of one logical transaction.
		txn.pendingWrite = false
		txn.Write = true
		p.issue(txn)
		return
	}
	txn.done = true
	txn.Completed = now
	delete(n.mshr, txn.Addr)
	p.txnCount.Inc()
	p.txnLatency.Add(float64(txn.Completed - txn.Started))
	p.txnMsgs.Add(float64(txn.NetMessages))
	if p.keepTxns {
		p.completed = append(p.completed, txn)
	}
	if p.cfg.OnComplete != nil {
		p.cfg.OnComplete(txn)
	}
	for _, thread := range txn.waiters {
		if p.cfg.OnReady != nil {
			p.cfg.OnReady(nodeID, thread, now)
		}
	}
	txn.waiters = nil
}

// ResetStats zeroes the accumulated statistics (and retained
// transactions) without disturbing protocol state, so a measurement
// window can exclude warmup.
func (p *Protocol) ResetStats() {
	for i := range p.kindCounts {
		p.kindCounts[i] = stats.Counter{}
	}
	p.txnCount = stats.Counter{}
	p.txnLatency = stats.Mean{}
	p.txnMsgs = stats.Mean{}
	p.netMsgs = stats.Counter{}
	p.swTraps = stats.Counter{}
	p.readMiss = stats.Counter{}
	p.writeMiss = stats.Counter{}
	p.completed = nil
}

// Stats is a snapshot of protocol-level measurements.
type Stats struct {
	Transactions  int64
	ReadMisses    int64
	WriteMisses   int64
	AvgTxnLatency float64 // P-cycles, issue to completion
	AvgTxnMsgs    float64 // fabric messages per transaction (g)
	NetMessages   int64
	SWTraps       int64
}

// KindCount returns how many fabric messages of the given kind have
// been sent since the last ResetStats.
func (p *Protocol) KindCount(k MsgKind) int64 {
	return p.kindCounts[k].Value()
}

// Snapshot returns current aggregate statistics.
func (p *Protocol) Snapshot() Stats {
	return Stats{
		Transactions:  p.txnCount.Value(),
		ReadMisses:    p.readMiss.Value(),
		WriteMisses:   p.writeMiss.Value(),
		AvgTxnLatency: p.txnLatency.Mean(),
		AvgTxnMsgs:    p.txnMsgs.Mean(),
		NetMessages:   p.netMsgs.Value(),
		SWTraps:       p.swTraps.Value(),
	}
}

// OldestTxn returns the in-flight transaction that started earliest
// (ties broken by ID), or nil when none is outstanding. The machine
// watchdog uses it to name the stuck work in a stall report.
func (p *Protocol) OldestTxn() *Transaction {
	var oldest *Transaction
	for i := range p.nodes {
		for _, t := range p.nodes[i].mshr {
			if oldest == nil || t.Started < oldest.Started ||
				(t.Started == oldest.Started && t.ID < oldest.ID) {
				oldest = t
			}
		}
	}
	return oldest
}

// DirectoryInfo describes a directory entry for invariant checks.
type DirectoryInfo struct {
	State   string
	Sharers []int
	Owner   int
	Busy    bool
	Queued  int
}

// Directory returns the directory entry view for a line at its home,
// or a zero Info when the line has never been referenced.
func (p *Protocol) Directory(addr uint64) DirectoryInfo {
	home := p.cfg.Home(addr)
	e, ok := p.nodes[home].dir[addr]
	if !ok {
		return DirectoryInfo{State: "idle", Owner: -1}
	}
	names := map[dirState]string{dirIdle: "idle", dirShared: "shared", dirModified: "modified"}
	return DirectoryInfo{
		State:   names[e.state],
		Sharers: append([]int(nil), e.sharers...),
		Owner:   e.owner,
		Busy:    e.busy != busyNone,
		Queued:  len(e.queue),
	}
}

// Idle reports whether no protocol activity is pending (no scheduled
// events, no outstanding transactions, no busy directory entries).
func (p *Protocol) Idle() bool {
	if p.events.len() > 0 {
		return false
	}
	for i := range p.nodes {
		if len(p.nodes[i].mshr) > 0 {
			return false
		}
		for _, e := range p.nodes[i].dir {
			if e.busy != busyNone || len(e.queue) > 0 {
				return false
			}
		}
	}
	return true
}
