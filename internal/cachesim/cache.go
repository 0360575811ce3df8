// Package cachesim models the per-node cache of the reference
// architecture: direct-mapped, physically indexed, with a configurable
// line size (the paper's machine uses a 64-kilobyte unified cache with
// 16-byte lines). The cache tracks coherence state per line (Invalid,
// Shared, Modified); the protocol engine in package cohsim drives the
// state transitions.
//
// Storage is sparse: only occupied (non-Invalid) frames are held, in a
// map keyed by frame index, so an empty or lightly touched cache costs
// O(occupied lines) memory instead of O(configured lines). That is
// what lets a 10^5-node machine with mostly-idle caches fit in RAM.
// Map iteration order never leaks into simulated behavior: lookups and
// updates address single frames, and the only whole-cache walks
// (StateCensus, Checkpoint) produce order-independent counts or sort
// before emitting.
package cachesim

import (
	"fmt"
	"math/bits"

	"locality/internal/stats"
)

// State is a cache line's coherence state.
type State uint8

const (
	// Invalid lines hold no data.
	Invalid State = iota
	// Shared lines hold a read-only copy.
	Shared
	// Modified lines hold the only, writable copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config sizes the cache.
type Config struct {
	// Lines is the number of direct-mapped lines; must be a power of
	// two. The reference cache has 64 KB / 16 B = 4096 lines.
	Lines int
	// LineSize is the line size in bytes; must be a power of two.
	LineSize int
}

// line is one occupied frame: the full line address it holds and its
// coherence state (never Invalid — Invalid frames are absent).
type line struct {
	tag   uint64
	state State
}

// Cache is one node's direct-mapped coherent cache.
type Cache struct {
	cfg        Config
	indexMask  uint64
	offsetBits uint
	// lines maps frame index → occupied line. Allocated lazily on the
	// first Install, so a never-written cache costs a few words.
	lines map[int]line

	hits      stats.Counter
	misses    stats.Counter
	evictions stats.Counter
}

// New validates the configuration and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Lines <= 0 || bits.OnesCount(uint(cfg.Lines)) != 1 {
		return nil, fmt.Errorf("cachesim: line count %d must be a positive power of two", cfg.Lines)
	}
	if cfg.LineSize <= 0 || bits.OnesCount(uint(cfg.LineSize)) != 1 {
		return nil, fmt.Errorf("cachesim: line size %d must be a positive power of two", cfg.LineSize)
	}
	return &Cache{
		cfg:        cfg,
		indexMask:  uint64(cfg.Lines - 1),
		offsetBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// LineAddr returns the address truncated to its line boundary.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

func (c *Cache) index(addr uint64) int {
	return int((addr >> c.offsetBits) & c.indexMask)
}

// Lookup returns the state of the line containing addr. Invalid means
// absent (either never installed or a conflicting tag occupies the
// frame).
func (c *Cache) Lookup(addr uint64) State {
	ln, ok := c.lines[c.index(addr)]
	if !ok || ln.tag != c.LineAddr(addr) {
		return Invalid
	}
	return ln.state
}

// AccessRead records a read access: a hit if the line is Shared or
// Modified. Misses must be resolved by the coherence protocol before
// Install is called.
func (c *Cache) AccessRead(addr uint64) bool {
	if c.Lookup(addr) != Invalid {
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// AccessWrite records a write access: a hit only if the line is
// Modified. Writes to Shared lines miss and require an ownership
// upgrade through the protocol.
func (c *Cache) AccessWrite(addr uint64) bool {
	if c.Lookup(addr) == Modified {
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// Eviction describes a line displaced by Install.
type Eviction struct {
	LineAddr uint64
	State    State
}

// Install places the line containing addr in the cache with the given
// state, returning the eviction it displaces, if any. Installing with
// Invalid state is rejected.
func (c *Cache) Install(addr uint64, s State) (Eviction, bool) {
	if s == Invalid {
		panic("cachesim: Install with Invalid state")
	}
	i := c.index(addr)
	la := c.LineAddr(addr)
	var ev Eviction
	had := false
	if prev, ok := c.lines[i]; ok && prev.tag != la {
		ev = Eviction{LineAddr: prev.tag, State: prev.state}
		had = true
		c.evictions.Inc()
	}
	if c.lines == nil {
		c.lines = make(map[int]line)
	}
	c.lines[i] = line{tag: la, state: s}
	return ev, had
}

// SetState transitions a present line to a new state (upgrade S→M or
// downgrade M→S). It panics if the line is absent, making protocol
// bookkeeping errors loud.
func (c *Cache) SetState(addr uint64, s State) {
	i := c.index(addr)
	ln, ok := c.lines[i]
	if !ok || ln.tag != c.LineAddr(addr) {
		panic(fmt.Sprintf("cachesim: SetState on absent line %#x", addr))
	}
	ln.state = s
	c.lines[i] = ln
}

// Invalidate drops the line containing addr if present, reporting
// whether it was present and its prior state. The frame is released:
// an invalidated line costs no memory.
func (c *Cache) Invalidate(addr uint64) (State, bool) {
	i := c.index(addr)
	ln, ok := c.lines[i]
	if !ok || ln.tag != c.LineAddr(addr) {
		return Invalid, false
	}
	delete(c.lines, i)
	return ln.state, true
}

// Hits returns the number of hit accesses recorded.
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the number of miss accesses recorded.
func (c *Cache) Misses() int64 { return c.misses.Value() }

// Evictions returns the number of conflict evictions performed.
func (c *Cache) Evictions() int64 { return c.evictions.Value() }

// Lines returns the configured number of lines.
func (c *Cache) Lines() int { return c.cfg.Lines }

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// StateCensus returns how many lines are currently in each state;
// used by protocol invariant checks.
func (c *Cache) StateCensus() (shared, modified int) {
	for _, ln := range c.lines {
		switch ln.state {
		case Shared:
			shared++
		case Modified:
			modified++
		}
	}
	return shared, modified
}
