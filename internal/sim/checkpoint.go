package sim

import "fmt"

// Checkpointable is implemented by simulation components whose state
// can be captured into a serializable value and restored exactly. The
// concrete state types are component-specific; the machine layer wires
// them into the versioned checkpoint format.
type Checkpointable interface {
	// CheckpointState returns a self-contained snapshot of the
	// component's state at the current cycle boundary.
	CheckpointState() any
	// RestoreState overwrites the component with a snapshot previously
	// returned by CheckpointState on an identically configured
	// component.
	RestoreState(state any) error
}

// KernelState is the kernel's serialized execution state: the clock,
// the tick/skip accounting, and the attribution charges (nil when
// attribution is disabled).
type KernelState struct {
	Now      int64
	Stats    Stats
	Pending  int
	Attr     []int64
	AttrNone int64
}

// Checkpoint captures the kernel's execution state.
func (k *Kernel) Checkpoint() KernelState {
	s := KernelState{Now: k.now, Stats: k.stats, Pending: k.pending, AttrNone: k.attrNone}
	if k.attr != nil {
		s.Attr = append([]int64(nil), k.attr...)
	}
	return s
}

// Restore overwrites the kernel's execution state. Attribution must be
// configured the same way (enabled over the same component count) as
// when the state was captured. The sleeper calendar is not part of the
// state: Restore drops it and the next Run rebuilds it.
func (k *Kernel) Restore(s KernelState) error {
	if (s.Attr == nil) != (k.attr == nil) {
		return fmt.Errorf("sim: checkpoint and kernel disagree on attribution (checkpoint %v, kernel %v)",
			s.Attr != nil, k.attr != nil)
	}
	if s.Attr != nil && len(s.Attr) != len(k.attr) {
		return fmt.Errorf("sim: checkpoint attributes %d components, kernel has %d", len(s.Attr), len(k.attr))
	}
	if s.Pending < -1 || s.Pending >= len(k.comps) {
		return fmt.Errorf("sim: checkpoint pending charge %d out of range", s.Pending)
	}
	k.cal.built = false
	k.now = s.Now
	k.stats = s.Stats
	k.pending = s.Pending
	if s.Attr != nil {
		copy(k.attr, s.Attr)
	}
	k.attrNone = s.AttrNone
	return nil
}
