// Package procsim models the block-multithreaded processors of the
// reference architecture: p hardware contexts, each running one
// application thread; on a cache miss the processor switches to the
// next ready context, paying a fixed context-switch cost (11 cycles in
// the reference machine). A single-context processor simply stalls.
//
// Threads are expressed as Programs — generators of compute/read/write
// operations — so the same processor model runs any workload without
// instruction-level simulation. This substitutes for the paper's
// instruction-level Sparcle simulation: the models consume only the
// timing of memory references, which the program stream reproduces.
package procsim

import (
	"fmt"

	"locality/internal/stats"
)

// OpKind classifies thread operations.
type OpKind uint8

const (
	// OpCompute spends Cycles processor cycles of useful work.
	OpCompute OpKind = iota
	// OpRead performs a load from Addr.
	OpRead
	// OpWrite performs a store to Addr.
	OpWrite
	// OpPrefetch issues a non-binding read for Addr's line without
	// blocking: the thread continues immediately and a later OpRead
	// waits only for any remaining latency.
	OpPrefetch
	// OpWriteBehind issues a non-blocking write-ownership acquisition
	// for Addr's line (weak ordering): the thread continues
	// immediately; ordering is restored by a later OpFence.
	OpWriteBehind
	// OpFence blocks the thread until all of its outstanding
	// write-behind operations have completed.
	OpFence
	// OpHalt terminates the thread.
	OpHalt
)

// Op is one thread operation.
type Op struct {
	Kind   OpKind
	Cycles int
	Addr   uint64
}

// Program generates a thread's operation stream. Implementations are
// typically infinite loops; OpHalt stops the thread permanently.
type Program interface {
	Next() Op
}

// MemorySystem is the processor's view of the cache/coherence
// subsystem. Access returns true if the access completed (hit). On a
// miss the thread blocks until the processor's Ready method is invoked
// for that context, after which the access is retried.
type MemorySystem interface {
	Access(node, context int, addr uint64, write bool, now int64) bool
	// Prefetch starts a non-blocking fetch of addr's line; it reports
	// whether a new transaction was issued.
	Prefetch(node int, addr uint64, now int64) bool
	// WriteBehind starts a non-blocking write-ownership acquisition.
	WriteBehind(node int, addr uint64, now int64) bool
	// Join blocks the thread on the in-flight transaction for addr's
	// line if one exists, reporting whether the thread must wait.
	Join(node, thread int, addr uint64, now int64) bool
}

// Config parameterizes one processor.
type Config struct {
	// Contexts is p, the number of hardware contexts (≥ 1).
	Contexts int
	// SwitchTime is Tc, the block context switch cost in cycles.
	SwitchTime int
	// HitLatency is the cycles consumed by a cache hit (≥ 1).
	HitLatency int
	// OnOp, when non-nil, observes every operation fetched from a
	// program — exactly once per operation, in each thread's program
	// order — before the processor acts on it. Retries of a blocked
	// memory operation do not re-fire. Trace capture hangs off this
	// hook; it must not mutate simulation state.
	OnOp func(node, context int, op Op)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Contexts < 1 {
		return fmt.Errorf("procsim: context count %d, must be ≥ 1", c.Contexts)
	}
	if c.SwitchTime < 0 {
		return fmt.Errorf("procsim: negative switch time %d", c.SwitchTime)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("procsim: hit latency %d, must be ≥ 1", c.HitLatency)
	}
	return nil
}

// context state
type ctxState uint8

const (
	ctxRunning ctxState = iota
	ctxReady            // runnable, not currently scheduled
	ctxBlocked          // waiting on a memory transaction
	ctxHalted
)

type context struct {
	prog  Program
	state ctxState
	// pending is a memory op awaiting retry, valid when hasPending.
	pending    Op
	hasPending bool
	// look holds an op fetched ahead of time by the burst-merging
	// lookahead in NextEvent, valid when hasLook (a non-compute op, or
	// any op parked by a capped fold; merged compute bursts fold into
	// remaining instead). Tick consumes it before asking the program
	// for more.
	look    Op
	hasLook bool
	// remaining cycles of the current compute burst or hit access
	remaining int
	// wbPending holds addresses with write-behind operations not yet
	// confirmed by a fence.
	wbPending []uint64
	// fetched counts operations drawn from prog (every prog.Next call),
	// so a checkpoint can record the program's position and a restore
	// can fast-forward a fresh program to it.
	fetched int64
}

// Processor is one node's processor.
type Processor struct {
	nodeID int
	cfg    Config
	mem    MemorySystem
	ctxs   []context
	cur    int // scheduled context
	// switchLeft counts down a context switch in progress; the target
	// is already stored in cur.
	switchLeft int
	// lastTick is the last cycle applied, through Tick or Advance
	// (-1 before the first cycle); it anchors NextEvent.
	lastTick int64

	busy         stats.Counter // cycles doing useful work (compute or hits)
	switchC      stats.Counter // cycles spent context switching
	idle         stats.Counter // cycles with no runnable context
	accesses     stats.Counter
	misses       stats.Counter
	prefetches   stats.Counter
	writeBehinds stats.Counter
}

// New builds a processor running the given thread programs (one per
// context; len(programs) must equal cfg.Contexts).
func New(nodeID int, cfg Config, mem MemorySystem, programs []Program) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.Contexts {
		return nil, fmt.Errorf("procsim: %d programs for %d contexts", len(programs), cfg.Contexts)
	}
	if mem == nil {
		return nil, fmt.Errorf("procsim: nil memory system")
	}
	p := &Processor{nodeID: nodeID, cfg: cfg, mem: mem, ctxs: make([]context, cfg.Contexts), lastTick: -1}
	for i := range p.ctxs {
		p.ctxs[i] = context{prog: programs[i], state: ctxReady}
	}
	p.ctxs[0].state = ctxRunning
	p.cur = 0
	return p, nil
}

// Ready unblocks a context whose memory transaction completed. Safe to
// call from memory-system callbacks at any point in the cycle.
func (p *Processor) Ready(ctx int, now int64) {
	c := &p.ctxs[ctx]
	if c.state != ctxBlocked {
		panic(fmt.Sprintf("procsim: Ready for context %d in state %d", ctx, c.state))
	}
	c.state = ctxReady
}

// Tick advances the processor one cycle.
func (p *Processor) Tick(now int64) {
	p.lastTick = now
	// Finish an in-progress context switch first.
	if p.switchLeft > 0 {
		p.switchLeft--
		p.switchC.Inc()
		return
	}
	c := &p.ctxs[p.cur]
	if c.state != ctxRunning {
		// The scheduled context is blocked or halted: look for work.
		if next, ok := p.nextReady(); ok {
			p.dispatch(next)
			// The switch (if any) consumed this cycle via dispatch.
			return
		}
		p.idle.Inc()
		return
	}
	// Drain the current compute burst or hit access.
	if c.remaining > 0 {
		c.remaining--
		p.busy.Inc()
		return
	}
	// Fetch or retry an operation.
	op := c.pending
	if !c.hasPending {
		op = p.fetch(c, p.cur)
	}
	switch op.Kind {
	case OpCompute:
		c.hasPending = false
		if op.Cycles <= 0 {
			// Zero-length burst: consume this cycle fetching.
			p.busy.Inc()
			return
		}
		c.remaining = op.Cycles - 1 // this cycle counts
		p.busy.Inc()
	case OpRead, OpWrite:
		p.accesses.Inc()
		hit := p.mem.Access(p.nodeID, p.cur, op.Addr, op.Kind == OpWrite, now)
		if hit {
			c.hasPending = false
			c.remaining = p.cfg.HitLatency - 1
			p.busy.Inc()
			return
		}
		// Miss: block this context (the access retries on wakeup) and
		// switch away if another context is ready.
		p.misses.Inc()
		c.pending, c.hasPending = op, true
		c.state = ctxBlocked
		p.busy.Inc() // the issuing cycle itself is useful work
		if next, ok := p.nextReady(); ok {
			p.beginSwitch(next)
		}
	case OpPrefetch:
		c.hasPending = false
		p.prefetches.Inc()
		p.mem.Prefetch(p.nodeID, op.Addr, now)
		p.busy.Inc() // issuing the prefetch costs one cycle
	case OpWriteBehind:
		c.hasPending = false
		p.writeBehinds.Inc()
		p.mem.WriteBehind(p.nodeID, op.Addr, now)
		c.wbPending = append(c.wbPending, op.Addr)
		p.busy.Inc()
	case OpFence:
		// Drain confirmed write-behinds; block on the first one still
		// in flight and re-enter the fence after wakeup.
		for len(c.wbPending) > 0 {
			if p.mem.Join(p.nodeID, p.cur, c.wbPending[0], now) {
				c.pending, c.hasPending = op, true
				c.state = ctxBlocked
				p.busy.Inc()
				if next, ok := p.nextReady(); ok {
					p.beginSwitch(next)
				}
				return
			}
			c.wbPending = c.wbPending[1:]
		}
		c.hasPending = false
		p.busy.Inc()
	case OpHalt:
		c.hasPending = false
		c.state = ctxHalted
		if next, ok := p.nextReady(); ok {
			p.beginSwitch(next)
		}
	default:
		panic(fmt.Sprintf("procsim: unknown op kind %d", op.Kind))
	}
}

// fetch returns the context's next operation: the lookahead slot if
// the event path filled it, the program otherwise. Every operation
// passes through here exactly once, so this is where OnOp fires.
func (p *Processor) fetch(c *context, ctxIdx int) Op {
	if c.hasLook {
		c.hasLook = false
		return c.look
	}
	next := c.prog.Next()
	c.fetched++
	if p.cfg.OnOp != nil {
		p.cfg.OnOp(p.nodeID, ctxIdx, next)
	}
	return next
}

// nextReady finds the next runnable context in round-robin order after
// cur, including cur itself last (a context that blocked and became
// ready again can resume without a full rotation).
func (p *Processor) nextReady() (int, bool) {
	n := len(p.ctxs)
	for i := 1; i <= n; i++ {
		idx := (p.cur + i) % n
		if p.ctxs[idx].state == ctxReady {
			return idx, true
		}
	}
	return 0, false
}

// beginSwitch starts a context switch at the end of a miss cycle.
func (p *Processor) beginSwitch(next int) {
	if next == p.cur {
		p.ctxs[next].state = ctxRunning
		return
	}
	p.cur = next
	p.ctxs[next].state = ctxRunning
	p.switchLeft = p.cfg.SwitchTime
}

// dispatch schedules a ready context when the processor had nothing
// running (wake from idle or blocked-current).
func (p *Processor) dispatch(next int) {
	if next == p.cur {
		// Same context resumes: no pipeline refill charged.
		p.ctxs[next].state = ctxRunning
		p.busy.Inc()
		return
	}
	p.cur = next
	p.ctxs[next].state = ctxRunning
	if p.cfg.SwitchTime > 0 {
		p.switchLeft = p.cfg.SwitchTime - 1 // this cycle is part of the switch
		p.switchC.Inc()
	} else {
		p.busy.Inc()
	}
}

// Stats reports cycle accounting.
type Stats struct {
	Busy, Switching, Idle int64
	Accesses, Misses      int64
	Prefetches            int64
	WriteBehinds          int64
}

// Snapshot returns the processor's cycle accounting so far.
func (p *Processor) Snapshot() Stats {
	return Stats{
		Busy:         p.busy.Value(),
		Switching:    p.switchC.Value(),
		Idle:         p.idle.Value(),
		Accesses:     p.accesses.Value(),
		Misses:       p.misses.Value(),
		Prefetches:   p.prefetches.Value(),
		WriteBehinds: p.writeBehinds.Value(),
	}
}

// Halted reports whether every context has halted.
func (p *Processor) Halted() bool {
	for i := range p.ctxs {
		if p.ctxs[i].state != ctxHalted {
			return false
		}
	}
	return true
}
