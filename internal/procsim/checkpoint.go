package procsim

import "fmt"

// ContextState is one hardware context's serialized state. Pending and
// Look hold values only when HasPending and HasLook are set; Fetched
// records how many operations the context has drawn from its program,
// so a restore can fast-forward a fresh program to the same position.
type ContextState struct {
	State      uint8
	HasPending bool
	Pending    Op
	HasLook    bool
	Look       Op
	Remaining  int
	WBPending  []uint64
	Fetched    int64
}

// CheckpointState is a processor's complete serializable state.
type CheckpointState struct {
	Ctxs       []ContextState
	Cur        int
	SwitchLeft int
	LastTick   int64

	Busy, Switching, Idle    int64
	Accesses, Misses         int64
	Prefetches, WriteBehinds int64
}

// Checkpoint captures the processor's current state.
func (p *Processor) Checkpoint() CheckpointState {
	s := CheckpointState{
		Ctxs:         make([]ContextState, len(p.ctxs)),
		Cur:          p.cur,
		SwitchLeft:   p.switchLeft,
		LastTick:     p.lastTick,
		Busy:         p.busy.Value(),
		Switching:    p.switchC.Value(),
		Idle:         p.idle.Value(),
		Accesses:     p.accesses.Value(),
		Misses:       p.misses.Value(),
		Prefetches:   p.prefetches.Value(),
		WriteBehinds: p.writeBehinds.Value(),
	}
	for i := range p.ctxs {
		c := &p.ctxs[i]
		cs := ContextState{
			State:     uint8(c.state),
			Remaining: c.remaining,
			WBPending: append([]uint64(nil), c.wbPending...),
			Fetched:   c.fetched,
		}
		if c.hasPending {
			cs.HasPending, cs.Pending = true, c.pending
		}
		if c.hasLook {
			cs.HasLook, cs.Look = true, c.look
		}
		s.Ctxs[i] = cs
	}
	return s
}

// Restore overwrites the processor with a previously captured state.
// The processor must be freshly built over the same configuration and
// (deterministic) programs: each program is fast-forwarded by the
// recorded fetch count — its operations are drawn and discarded, and
// OnOp does not fire for them — which reproduces the program's internal
// position exactly.
func (p *Processor) Restore(s CheckpointState) error {
	if len(s.Ctxs) != len(p.ctxs) {
		return fmt.Errorf("procsim: checkpoint has %d contexts, processor has %d", len(s.Ctxs), len(p.ctxs))
	}
	if s.Cur < 0 || s.Cur >= len(p.ctxs) {
		return fmt.Errorf("procsim: checkpoint scheduled context %d out of range", s.Cur)
	}
	if s.SwitchLeft < 0 {
		return fmt.Errorf("procsim: negative switch countdown %d", s.SwitchLeft)
	}
	for i, cs := range s.Ctxs {
		if cs.State > uint8(ctxHalted) {
			return fmt.Errorf("procsim: context %d has invalid state %d", i, cs.State)
		}
		if cs.Fetched < 0 {
			return fmt.Errorf("procsim: context %d has negative fetch count", i)
		}
	}
	for i, cs := range s.Ctxs {
		c := &p.ctxs[i]
		if c.fetched > cs.Fetched {
			return fmt.Errorf("procsim: context %d already fetched %d ops, checkpoint has %d — restore needs a fresh program", i, c.fetched, cs.Fetched)
		}
		for n := c.fetched; n < cs.Fetched; n++ {
			c.prog.Next()
		}
		c.state = ctxState(cs.State)
		c.pending, c.hasPending = cs.Pending, cs.HasPending
		c.look, c.hasLook = cs.Look, cs.HasLook
		c.remaining = cs.Remaining
		c.wbPending = append(c.wbPending[:0], cs.WBPending...)
		c.fetched = cs.Fetched
	}
	p.cur = s.Cur
	p.switchLeft = s.SwitchLeft
	p.lastTick = s.LastTick
	p.busy.SetValue(s.Busy)
	p.switchC.SetValue(s.Switching)
	p.idle.SetValue(s.Idle)
	p.accesses.SetValue(s.Accesses)
	p.misses.SetValue(s.Misses)
	p.prefetches.SetValue(s.Prefetches)
	p.writeBehinds.SetValue(s.WriteBehinds)
	return nil
}
