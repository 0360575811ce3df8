package core

import (
	"math"
	"sync"
)

// SolveCache memoizes Config.Solve results keyed by the canonicalized
// configuration. The model server puts one in front of /v1/solve. A
// cold solve costs about a microsecond, so the cache is deliberately
// plain: one mutex-guarded map from the key's hash to its entry, which
// is cleared outright when it reaches its capacity. The bound keeps a
// server that sees a stream of distinct configurations from growing
// without limit. Hits, misses, and evictions are counted for the
// /metrics exposition.
//
// Safe for concurrent use. A concurrent miss on the same key may solve
// twice, which is harmless because Solve is deterministic. The zero
// value is usable and holds up to DefaultCacheCapacity entries.
type SolveCache struct {
	capacity int // <= 0 selects DefaultCacheCapacity

	mu sync.Mutex
	// m maps the precomputed key hash to its entry. Keying by uint64
	// instead of the 13-field Config struct keeps lookups off the
	// runtime's generic struct hasher; a lookup still compares the full
	// key, so a 64-bit collision is a miss that replaces the old entry.
	m                       map[uint64]*solveEntry
	hits, misses, evictions int64
}

// DefaultCacheCapacity bounds a SolveCache built with a non-positive
// capacity or used as a zero value. An entry is a Config key plus a
// Solution, a few hundred bytes, so a full cache stays well under 1 MB.
const DefaultCacheCapacity = 1 << 10

type solveEntry struct {
	key  Config
	hash uint64
	sol  Solution
	err  error
}

// NewSolveCache returns a cache bounded to capacity entries.
// capacity <= 0 selects DefaultCacheCapacity.
func NewSolveCache(capacity int) *SolveCache {
	return &SolveCache{capacity: capacity}
}

func (sc *SolveCache) limit() int {
	if sc.capacity <= 0 {
		return DefaultCacheCapacity
	}
	return sc.capacity
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime
}

// hash folds every field that participates in map-key equality with
// FNV-1a over the fields' bit patterns, so canonically equal configs
// get the same hash. Two independent lanes halve the multiply
// dependency chain, which sits on every lookup, and a final cross-mix
// folds them together.
func (c *Config) hash() uint64 {
	a := uint64(fnvOffset)
	b := uint64(fnvOffset) ^ fnvPrime
	a = fnvMix(a, math.Float64bits(c.App.Grain))
	b = fnvMix(b, math.Float64bits(c.App.SwitchTime))
	a = fnvMix(a, uint64(c.App.Contexts))
	b = fnvMix(b, math.Float64bits(c.Txn.CriticalPath))
	a = fnvMix(a, math.Float64bits(c.Txn.MessagesPer))
	b = fnvMix(b, math.Float64bits(c.Txn.FixedOverhead))
	a = fnvMix(a, uint64(c.Net.Dims))
	b = fnvMix(b, math.Float64bits(c.Net.MsgSize))
	a = fnvMix(a, math.Float64bits(c.Net.FixedOverhead))
	var flags uint64
	if c.Net.NodeChannelContention {
		flags |= 1
	}
	if c.AssumeUnmasked {
		flags |= 2
	}
	b = fnvMix(b, flags)
	a = fnvMix(a, math.Float64bits(c.ClockRatio))
	b = fnvMix(b, math.Float64bits(c.D))
	return fnvMix(a, b)
}

// Solve returns cfg.Solve(), memoized. Configurations that cannot be
// canonicalized to a valid map key (NaN parameters) fall through to a
// direct solve and are never stored.
func (sc *SolveCache) Solve(cfg Config) (Solution, error) {
	key, ok := cfg.canonical()
	if !ok {
		sc.mu.Lock()
		sc.misses++
		sc.mu.Unlock()
		return cfg.Solve()
	}
	h := key.hash()
	sc.mu.Lock()
	if e := sc.m[h]; e != nil && e.key == key {
		sc.hits++
		sc.mu.Unlock()
		return e.sol, e.err
	}
	sc.misses++
	sc.mu.Unlock()

	// Solve outside the lock so a miss never stalls other lookups.
	sol, err := cfg.Solve()
	sc.store(&solveEntry{key: key, hash: h, sol: sol, err: err})
	return sol, err
}

// store inserts e, first clearing the map if it is full.
func (sc *SolveCache) store(e *solveEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if old := sc.m[e.hash]; old != nil {
		if old.key == e.key {
			return // a concurrent miss stored it first
		}
		sc.evictions++
	} else if len(sc.m) >= sc.limit() {
		sc.evictions += int64(len(sc.m))
		clear(sc.m)
	}
	if sc.m == nil {
		sc.m = make(map[uint64]*solveEntry)
	}
	sc.m[e.hash] = e
}

// CacheStats is a point-in-time view of the cache's counters and size.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Entries counts currently resident entries; Capacity is the
	// configured bound.
	Entries, Capacity int
}

// Stats returns the cache's lifetime counters and current occupancy.
func (sc *SolveCache) Stats() CacheStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return CacheStats{
		Hits:      sc.hits,
		Misses:    sc.misses,
		Evictions: sc.evictions,
		Entries:   len(sc.m),
		Capacity:  sc.limit(),
	}
}

// Len counts the stored entries.
func (sc *SolveCache) Len() int { return sc.Stats().Entries }

// canonical normalizes a configuration to its cache key, mapping
// configurations that provably share a solution onto one key: a
// single-context processor never pays the context-switch cost, so
// SwitchTime is zeroed at p = 1. The second result is false when the
// configuration contains NaN fields, which would break map-key
// equality (NaN != NaN) and leak unmatchable entries.
func (c Config) canonical() (Config, bool) {
	if c != c { // any NaN field makes the struct unequal to itself
		return Config{}, false
	}
	if c.App.Contexts == 1 {
		c.App.SwitchTime = 0
	}
	return c, true
}
