// Package checkpoint defines the versioned .lckp wire format for
// whole-machine snapshots: everything the simulator needs to resume a
// run at a cycle boundary and reproduce the uninterrupted run bit for
// bit. Like the .lref trace format, the encoding is canonical (a given
// checkpoint always produces the same bytes, so re-encoding a decoded
// checkpoint is a fixed point) and the decoder is bounds-checked
// against hostile input: truncated, corrupt, or adversarial files fail
// with an error, never a panic or an unbounded allocation.
//
// The checkpoint captures component state through the per-package
// Checkpoint/Restore pairs (procsim, cohsim, netsim, sim) plus
// the machine-level clocks and resume bookkeeping. Transactions and
// in-flight network messages are shared by pointer across components;
// the codec flattens each into an ID- or index-keyed table so a restore
// rebuilds the original sharing exactly.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	"locality/internal/cohsim"
	"locality/internal/netsim"
	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/wire"
)

// Magic begins every serialized checkpoint.
const Magic = "LCKP"

// Version is the current wire-format version. Version 2 made the
// netsim router/injection-queue sections and the protocol node section
// sparse (zero-state entries omitted, index-tagged, strictly
// ascending) so snapshots of mostly-idle large machines stay small.
// Version 3 dropped what no run can vary: the slots of the removed
// fault injection, time-sliced sampling and settable protocol timing,
// the home-operation sequence numbers no protocol decision read, each
// in-flight message's delivery time, and the fingerprint's switch and
// hit times, which are machine constants. Read refuses every other
// version.
const Version = 3

// Hardening caps: upper bounds a hostile file cannot talk us past.
// They are far above any simulation this package targets.
const (
	maxDims     = 8
	maxRadix    = 1024
	maxNodes    = 1 << 20
	maxContexts = 1024
	maxNameLen  = 4096
	maxEntries  = 1 << 26 // cache lines / directory entries per node
	maxTxns     = 1 << 24
	maxEvents   = 1 << 24
	maxMessages = 1 << 24
	maxQueue    = 1 << 16
	maxCounters = 1 << 10
	maxPorts    = 256
	maxTime     = int64(1) << 62
)

// Fingerprint identifies the configuration a checkpoint was taken
// under. RestoreFrom refuses a checkpoint whose fingerprint does not
// match the rebuilt machine: every field here changes simulated
// behavior, so restoring across a mismatch would silently diverge
// from the uninterrupted run instead of reproducing it.
type Fingerprint struct {
	// Topology and thread placement.
	Radix, Dims int
	Contexts    int
	MappingName string
	Place       []int

	// Machine timing and sizing.
	ClockRatio  int
	BufferDepth int
	CacheLines  int
	LineSize    int
	HWPointers  int
	LocalDelay  int

	// Workload parameters. Workload is the identity of a custom
	// workload ("" for the default synthetic relaxation application).
	ReadCompute  int
	WriteCompute int
	Workload     string

	// Execution-loop selection; affects only kernel accounting, which
	// the checkpoint also carries.
	Kernel uint8
}

// Nodes returns Radix^Dims, or an error if it overflows the cap.
func (f *Fingerprint) Nodes() (int, error) {
	if f.Radix < 1 || f.Radix > maxRadix {
		return 0, fmt.Errorf("checkpoint: radix %d outside [1,%d]", f.Radix, maxRadix)
	}
	if f.Dims < 1 || f.Dims > maxDims {
		return 0, fmt.Errorf("checkpoint: dims %d outside [1,%d]", f.Dims, maxDims)
	}
	nodes := 1
	for i := 0; i < f.Dims; i++ {
		nodes *= f.Radix
		if nodes > maxNodes {
			return 0, fmt.Errorf("checkpoint: %d^%d nodes exceeds cap %d", f.Radix, f.Dims, maxNodes)
		}
	}
	return nodes, nil
}

// Equal reports whether two fingerprints describe the same
// configuration: every field, so none can be left out. A validated
// fingerprint's Place is never nil (it covers nodes ≥ 1 threads), so a
// nil and an empty placement never meet here.
func (f *Fingerprint) Equal(g *Fingerprint) bool { return reflect.DeepEqual(*f, *g) }

// Digest returns a short stable hex digest of the fingerprint's
// canonical wire encoding, which codes every field Equal compares, so
// external records (the run ledger) can identify a machine
// configuration without carrying the per-node Place table, which is
// 10⁵ entries on the machines the ledger most wants to track.
func (f *Fingerprint) Digest() string {
	h := sha256.New()
	s := sections{c: wire.NewEncoder(h, "checkpoint")}
	s.fingerprint(f)
	s.c.End() // a hash cannot fail; End flushes only a fingerprint Validate accepts, so only its digest names it
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// validate checks the fingerprint's structural invariants and returns
// the node count.
func (f *Fingerprint) validate() (int, error) {
	nodes, err := f.Nodes()
	if err != nil {
		return 0, err
	}
	if f.Contexts < 1 || f.Contexts > maxContexts {
		return 0, fmt.Errorf("checkpoint: contexts %d outside [1,%d]", f.Contexts, maxContexts)
	}
	if len(f.MappingName) > maxNameLen || len(f.Workload) > maxNameLen {
		return 0, fmt.Errorf("checkpoint: fingerprint string exceeds %d bytes", maxNameLen)
	}
	if len(f.Place) != nodes {
		return 0, fmt.Errorf("checkpoint: placement covers %d threads, machine has %d nodes", len(f.Place), nodes)
	}
	seen := make([]bool, nodes)
	for t, p := range f.Place {
		if p < 0 || p >= nodes || seen[p] {
			return 0, fmt.Errorf("checkpoint: placement is not a permutation at thread %d", t)
		}
		seen[p] = true
	}
	if f.ClockRatio < 1 || f.BufferDepth < 1 {
		return 0, fmt.Errorf("checkpoint: invalid machine timing in fingerprint")
	}
	if f.CacheLines < 1 || f.LineSize < 1 || f.HWPointers < 0 || f.LocalDelay < 0 {
		return 0, fmt.Errorf("checkpoint: invalid machine sizing in fingerprint")
	}
	if f.ReadCompute < 0 || f.WriteCompute < 0 {
		return 0, fmt.Errorf("checkpoint: negative compute burst in fingerprint")
	}
	if f.Kernel > 1 {
		return 0, fmt.Errorf("checkpoint: unknown kernel mode %d", f.Kernel)
	}
	return nodes, nil
}

// Checkpoint is one complete machine snapshot at a processor-cycle
// boundary.
type Checkpoint struct {
	// FP identifies the configuration; RestoreFrom enforces a match.
	FP Fingerprint

	// PNow is the processor cycle the snapshot was taken at.
	PNow int64
	// WindowStart and KSWindow are the measurement-window origin set by
	// the last ResetStats (the substrate statistics in the component
	// states are already window-relative; the kernel's are cumulative).
	WindowStart int64
	KSWindow    sim.Stats
	// ChunkDone is the offset within the interrupted Run call at which
	// the snapshot was taken. Resuming must re-enter the run loop at
	// this phase so the remaining chunk boundaries — and therefore the
	// kernel's Run-call accounting — land on the same cycles as the
	// uninterrupted run.
	ChunkDone int64

	// Component states.
	Kernel sim.KernelState
	Procs  []procsim.CheckpointState
	Proto  cohsim.CheckpointState
	Net    netsim.CheckpointState
}

// Validate checks the checkpoint's structural invariants: geometry
// consistency between the fingerprint and the component states, and
// sane clocks. Deep semantic validation (directory states, flit
// conservation, …) happens in the component Restore methods.
func (c *Checkpoint) Validate() error {
	nodes, err := c.FP.validate()
	if err != nil {
		return err
	}
	if c.PNow < 0 || c.PNow > maxTime {
		return fmt.Errorf("checkpoint: cycle %d out of range", c.PNow)
	}
	if c.WindowStart < 0 || c.WindowStart > c.PNow {
		return fmt.Errorf("checkpoint: window origin %d outside [0,%d]", c.WindowStart, c.PNow)
	}
	if c.KSWindow.Ticked < 0 || c.KSWindow.Skipped < 0 {
		return fmt.Errorf("checkpoint: negative window kernel accounting")
	}
	if c.ChunkDone < 0 || c.ChunkDone > maxTime {
		return fmt.Errorf("checkpoint: chunk offset %d out of range", c.ChunkDone)
	}
	if c.Kernel.Stats.Ticked < 0 || c.Kernel.Stats.Skipped < 0 {
		return fmt.Errorf("checkpoint: negative kernel accounting")
	}
	if c.Kernel.Now != c.PNow {
		return fmt.Errorf("checkpoint: kernel clock %d disagrees with machine clock %d", c.Kernel.Now, c.PNow)
	}
	if len(c.Procs) != nodes {
		return fmt.Errorf("checkpoint: %d processor states for %d nodes", len(c.Procs), nodes)
	}
	for i := range c.Procs {
		if len(c.Procs[i].Ctxs) != c.FP.Contexts {
			return fmt.Errorf("checkpoint: processor %d has %d contexts, fingerprint says %d",
				i, len(c.Procs[i].Ctxs), c.FP.Contexts)
		}
	}
	if len(c.Proto.Nodes) != nodes {
		return fmt.Errorf("checkpoint: %d protocol node states for %d nodes", len(c.Proto.Nodes), nodes)
	}
	if len(c.Proto.NextSend) != nodes {
		return fmt.Errorf("checkpoint: %d protocol send slots for %d nodes", len(c.Proto.NextSend), nodes)
	}
	prev := -1
	for _, r := range c.Net.Routers {
		if r.Index <= prev || r.Index >= nodes {
			return fmt.Errorf("checkpoint: router index %d out of order or range (previous %d, nodes %d)", r.Index, prev, nodes)
		}
		prev = r.Index
	}
	prev = -1
	for _, q := range c.Net.InjectQ {
		if q.Node <= prev || q.Node >= nodes {
			return fmt.Errorf("checkpoint: injection queue node %d out of order or range (previous %d, nodes %d)", q.Node, prev, nodes)
		}
		prev = q.Node
		if len(q.Msgs) == 0 {
			return fmt.Errorf("checkpoint: empty injection queue entry for node %d", q.Node)
		}
	}
	return nil
}
