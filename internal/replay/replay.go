// Package replay defines a versioned, compact on-disk format for
// recorded memory-reference streams — the per-thread sequence of
// compute bursts and memory operations a simulated (or real) machine
// issued — together with the home-assignment table that locates each
// referenced line, and the tools to capture such a trace from a run
// and to feed one back into the simulator as a workload.
//
// A trace is the paper's view of an application made concrete: it
// pins down exactly the quantities the models consume — the grain
// between references, the reference mix, and which thread owns each
// line — while remaining mapping-independent. Streams are keyed by
// *thread*, not processor, and line ownership is recorded as the
// owning thread, so the same trace replays under any thread-to-
// processor mapping and any context count up to the recorded one.
// This is the first path by which the simulator can be driven by data
// it did not generate.
//
// The wire format (little-endian, unsigned varints as in
// encoding/binary) is:
//
//	magic "LREF", version u8
//	header: radix, dims, contexts, lineSize, warmup, window (varints)
//	mapping name (varint length + bytes), placement table
//	  (varint node count, then thread→node entries; a permutation)
//	per-thread streams, thread-major ((thread, context) pairs in
//	  thread·contexts+context order): varint record count, then
//	  records of u8 kind + varint argument (compute cycles for
//	  compute records, line address for memory records, absent for
//	  fence/halt)
//	home table: varint entry count, then (address delta, owner
//	  thread) pairs in strictly ascending address order
//
// The decoder is fuzz-hardened: every count and index is bounded
// before allocation, slices grow incrementally rather than trusting
// declared lengths, and the placement and home tables are validated
// structurally, so a corrupt or adversarial trace yields an error,
// never a panic or an absurd allocation.
package replay

import (
	"fmt"
	"sort"

	"locality/internal/procsim"
)

// Format constants.
const (
	// Magic opens every trace file.
	Magic = "LREF"
	// Version is the current format version; readers reject others.
	Version = 1
)

// Decoder hardening caps. These are far above anything the simulator
// builds (the reference machine is a 64-node 8×8 torus) but small
// enough that a hostile header cannot drive huge allocations.
const (
	maxDims     = 8
	maxRadix    = 1024
	maxNodes    = 1 << 20
	maxContexts = 1024
	maxLineSize = 1 << 20
	maxNameLen  = 4096
	// maxComputeArg bounds a single recorded compute burst.
	maxComputeArg = 1 << 32
)

// Header carries the machine geometry and capture parameters a trace
// was recorded under. Radix/Dims define the torus (threads = nodes),
// Place is the capture-time thread→processor assignment (replay
// defaults to it when no mapping override is given), and
// Warmup/Window record the capture run's measurement protocol so a
// replay can reproduce it exactly.
type Header struct {
	Radix, Dims int
	Contexts    int
	LineSize    int
	// Warmup and Window are the capture run's P-cycle counts; replay
	// tools default to them.
	Warmup, Window int64
	// MappingName and Place describe the capture-time placement.
	MappingName string
	Place       []int
}

// Nodes returns radix^dims, the machine and thread-set size.
func (h Header) Nodes() int {
	n := 1
	for i := 0; i < h.Dims; i++ {
		n *= h.Radix
	}
	return n
}

// Threads returns the total stream count, nodes × contexts.
func (h Header) Threads() int { return h.Nodes() * h.Contexts }

// Validate checks the header against the format's structural bounds.
func (h Header) Validate() error {
	nodes, err := h.geometry()
	if err != nil {
		return err
	}
	if len(h.Place) != nodes {
		return fmt.Errorf("replay: placement covers %d threads, machine has %d nodes", len(h.Place), nodes)
	}
	seen := make([]bool, nodes)
	for t, node := range h.Place {
		if node < 0 || node >= nodes {
			return fmt.Errorf("replay: thread %d placed on node %d, outside [0, %d)", t, node, nodes)
		}
		if seen[node] {
			return fmt.Errorf("replay: placement is not a permutation (node %d assigned twice)", node)
		}
		seen[node] = true
	}
	return nil
}

// geometry checks every bound but the placement's and returns the
// node count.
func (h Header) geometry() (int, error) {
	if h.Radix < 2 || h.Radix > maxRadix {
		return 0, fmt.Errorf("replay: radix %d outside [2, %d]", h.Radix, maxRadix)
	}
	if h.Dims < 1 || h.Dims > maxDims {
		return 0, fmt.Errorf("replay: dims %d outside [1, %d]", h.Dims, maxDims)
	}
	nodes := 1
	for i := 0; i < h.Dims; i++ {
		nodes *= h.Radix
		if nodes > maxNodes {
			return 0, fmt.Errorf("replay: %d^%d nodes exceed cap %d", h.Radix, h.Dims, maxNodes)
		}
	}
	if h.Contexts < 1 || h.Contexts > maxContexts {
		return 0, fmt.Errorf("replay: context count %d outside [1, %d]", h.Contexts, maxContexts)
	}
	if h.LineSize < 1 || h.LineSize > maxLineSize {
		return 0, fmt.Errorf("replay: line size %d outside [1, %d]", h.LineSize, maxLineSize)
	}
	if h.Warmup < 0 || h.Window < 0 {
		return 0, fmt.Errorf("replay: negative warmup %d or window %d", h.Warmup, h.Window)
	}
	if len(h.MappingName) > maxNameLen {
		return 0, fmt.Errorf("replay: mapping name length %d exceeds cap %d", len(h.MappingName), maxNameLen)
	}
	return nodes, nil
}

// Wire kinds. These are frozen format values, deliberately distinct
// from procsim's internal OpKind ordering so the two can evolve
// independently.
const (
	wireCompute     = 1
	wireRead        = 2
	wireWrite       = 3
	wirePrefetch    = 4
	wireWriteBehind = 5
	wireFence       = 6
	wireHalt        = 7
)

// wireKindOf maps an OpKind to its frozen wire value.
func wireKindOf(k procsim.OpKind) (uint8, error) {
	switch k {
	case procsim.OpCompute:
		return wireCompute, nil
	case procsim.OpRead:
		return wireRead, nil
	case procsim.OpWrite:
		return wireWrite, nil
	case procsim.OpPrefetch:
		return wirePrefetch, nil
	case procsim.OpWriteBehind:
		return wireWriteBehind, nil
	case procsim.OpFence:
		return wireFence, nil
	case procsim.OpHalt:
		return wireHalt, nil
	}
	return 0, fmt.Errorf("replay: unencodable op kind %d", k)
}

// opKindOf maps a wire value back to the OpKind.
func opKindOf(wire uint8) (procsim.OpKind, error) {
	switch wire {
	case wireCompute:
		return procsim.OpCompute, nil
	case wireRead:
		return procsim.OpRead, nil
	case wireWrite:
		return procsim.OpWrite, nil
	case wirePrefetch:
		return procsim.OpPrefetch, nil
	case wireWriteBehind:
		return procsim.OpWriteBehind, nil
	case wireFence:
		return procsim.OpFence, nil
	case wireHalt:
		return procsim.OpHalt, nil
	}
	return 0, fmt.Errorf("replay: unknown wire kind %d", wire)
}

// hasArg reports whether a kind's record carries a varint argument.
func hasArg(k procsim.OpKind) bool {
	return k != procsim.OpFence && k != procsim.OpHalt
}

// Rec is one reference record: the operation kind plus its argument —
// burst length in P-cycles for compute, line address for memory
// operations, unused for fence and halt.
type Rec struct {
	Kind procsim.OpKind
	Arg  uint64
}

// Op converts the record to the procsim operation it encodes.
func (r Rec) Op() procsim.Op {
	switch r.Kind {
	case procsim.OpCompute:
		return procsim.Op{Kind: procsim.OpCompute, Cycles: int(r.Arg)}
	case procsim.OpFence, procsim.OpHalt:
		return procsim.Op{Kind: r.Kind}
	default:
		return procsim.Op{Kind: r.Kind, Addr: r.Arg}
	}
}

// RecOf converts a procsim operation to its trace record.
func RecOf(op procsim.Op) Rec {
	switch op.Kind {
	case procsim.OpCompute:
		cy := op.Cycles
		if cy < 0 {
			cy = 0
		}
		return Rec{Kind: procsim.OpCompute, Arg: uint64(cy)}
	case procsim.OpFence, procsim.OpHalt:
		return Rec{Kind: op.Kind}
	default:
		return Rec{Kind: op.Kind, Arg: op.Addr}
	}
}

// HomeEntry assigns one line address to its owning thread. The owner
// is a *thread*, not a node: replaying under mapping M places the line
// on node M.Place[Thread], which reproduces the recorded homes exactly
// under the capture-time placement and moves them coherently with the
// threads under any other.
type HomeEntry struct {
	Addr   uint64
	Thread int
}

// Trace is a fully decoded trace: header, one record stream per
// (thread, context) pair, and the home table.
type Trace struct {
	Header Header
	// Threads[t·Contexts+c] is the stream of thread t's context-c
	// instance (independent application copies, as in the synthetic
	// workloads).
	Threads [][]Rec
	// Home lists line ownership in strictly ascending address order.
	Home []HomeEntry
}

// Stream returns the record stream for (thread, context).
func (t *Trace) Stream(thread, ctx int) []Rec {
	return t.Threads[thread*t.Header.Contexts+ctx]
}

// Records returns the total record count across all streams.
func (t *Trace) Records() int64 {
	var n int64
	for _, s := range t.Threads {
		n += int64(len(s))
	}
	return n
}

// HomeMap builds the address→owner-thread lookup table.
func (t *Trace) HomeMap() map[uint64]int {
	m := make(map[uint64]int, len(t.Home))
	for _, e := range t.Home {
		m[e.Addr] = e.Thread
	}
	return m
}

// Validate checks the whole trace against the format's invariants.
func (t *Trace) Validate() error {
	if err := t.Header.Validate(); err != nil {
		return err
	}
	if len(t.Threads) != t.Header.Threads() {
		return fmt.Errorf("replay: %d streams for %d threads", len(t.Threads), t.Header.Threads())
	}
	for i, s := range t.Threads {
		for j, r := range s {
			if _, err := wireKindOf(r.Kind); err != nil {
				return fmt.Errorf("replay: stream %d record %d: %w", i, j, err)
			}
			if r.Kind == procsim.OpCompute && r.Arg > maxComputeArg {
				return fmt.Errorf("replay: stream %d record %d: compute burst %d exceeds cap", i, j, r.Arg)
			}
		}
	}
	threads := t.Header.Nodes()
	for i, e := range t.Home {
		if i > 0 && t.Home[i-1].Addr >= e.Addr {
			return fmt.Errorf("replay: home table not strictly ascending at entry %d", i)
		}
		if e.Thread < 0 || e.Thread >= threads {
			return fmt.Errorf("replay: home entry %d owned by thread %d, outside [0, %d)", i, e.Thread, threads)
		}
	}
	return nil
}

// sortHome orders a home table by address (used by the capture sink;
// the decoder instead rejects unordered tables).
func sortHome(entries []HomeEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Addr < entries[j].Addr })
}
