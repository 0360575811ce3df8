package sim

import "fmt"

// KernelKind selects an execution loop. The zero value is KernelEvent,
// matching the historical default of machine configurations that left
// the kernel field unset.
type KernelKind uint8

const (
	// KernelEvent executes a cycle, then advances straight to the
	// global minimum next-event, skipping quiescent spans in bulk.
	KernelEvent KernelKind = iota
	// KernelTick is the naive reference loop, executing every cycle.
	// Kept as an escape hatch and for differential testing.
	KernelTick
)

// kernelNames holds the canonical spellings, indexed by kind.
var kernelNames = [...]string{"event", "tick"}

// String implements fmt.Stringer ("event" / "tick").
func (k KernelKind) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("KernelKind(%d)", uint8(k))
}

// ParseKernel parses a kernel selector as accepted by the -kernel
// flags: "event" or "tick". The error on bad input lists the valid
// kinds.
func ParseKernel(s string) (KernelKind, error) {
	for i, name := range kernelNames {
		if s == name {
			return KernelKind(i), nil
		}
	}
	return 0, fmt.Errorf(`sim: unknown kernel %q (valid kinds: "event", "tick")`, s)
}
