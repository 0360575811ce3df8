package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSolveCacheHitsAndIdentity(t *testing.T) {
	var sc SolveCache
	cfg := Alewife(2, 4.06)
	want, err := cfg.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := sc.Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cached solution %+v differs from direct %+v", got, want)
		}
	}
	st := sc.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("hits=%d misses=%d, want 4/1", st.Hits, st.Misses)
	}
	if sc.Len() != 1 {
		t.Errorf("len = %d, want 1", sc.Len())
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
}

func TestSolveCacheCanonicalizesSwitchTime(t *testing.T) {
	// A single-context processor never pays Tc, so configs differing
	// only in SwitchTime at p=1 share one cache entry.
	var sc SolveCache
	a := Alewife(1, 4.06)
	b := a
	b.App.SwitchTime = a.App.SwitchTime + 7
	solA, err := sc.Solve(a)
	if err != nil {
		t.Fatal(err)
	}
	solB, err := sc.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if solA != solB {
		t.Fatalf("canonically equal configs solved differently: %+v vs %+v", solA, solB)
	}
	if st := sc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// At p=2 the switch time matters and must key separately.
	c := Alewife(2, 4.06)
	d := c
	d.App.SwitchTime = c.App.SwitchTime + 7
	if _, err := sc.Solve(c); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Solve(d); err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 3 {
		t.Errorf("len = %d, want 3 distinct entries", sc.Len())
	}
}

func TestSolveCacheCachesErrors(t *testing.T) {
	var sc SolveCache
	bad := Alewife(1, 4.06)
	bad.ClockRatio = -1
	if _, err := sc.Solve(bad); err == nil {
		t.Fatal("invalid config should error")
	}
	if _, err := sc.Solve(bad); err == nil {
		t.Fatal("cached invalid config should still error")
	}
	if st := sc.Stats(); st.Hits != 1 {
		t.Errorf("error results should be memoized too, hits = %d", st.Hits)
	}
}

func TestSolveCacheRejectsNaN(t *testing.T) {
	var sc SolveCache
	cfg := Alewife(1, 4.06)
	cfg.D = math.NaN()
	if _, err := sc.Solve(cfg); err == nil {
		t.Fatal("NaN distance should fail validation")
	}
	if sc.Len() != 0 {
		t.Errorf("NaN config must not be stored, len = %d", sc.Len())
	}
}

func TestSolveCacheConcurrent(t *testing.T) {
	// Exercised under -race: concurrent mixed hits and misses.
	var sc SolveCache
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := Alewife(1+g%3, 1+float64(i%10))
				if _, err := sc.Solve(cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sc.Len(); n != 30 {
		t.Errorf("distinct entries = %d, want 30", n)
	}
}

func TestSolveCacheEvictsWhenFull(t *testing.T) {
	sc := NewSolveCache(16)
	const distinct = 8 * 16
	for i := 0; i < distinct; i++ {
		if _, err := sc.Solve(Alewife(2, 1+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("cache holds %d entries, bound is %d", st.Entries, st.Capacity)
	}
	if st.Evictions != int64(distinct-st.Entries) {
		t.Errorf("evictions = %d, want misses beyond occupancy = %d", st.Evictions, distinct-st.Entries)
	}
	// A just-inserted key must be resident: a hit immediately after the
	// miss that stored it cannot have been evicted by that same insert.
	key := Alewife(2, float64(distinct))
	if _, err := sc.Solve(key); err != nil {
		t.Fatal(err)
	}
	before := sc.Stats().Hits
	if _, err := sc.Solve(key); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().Hits != before+1 {
		t.Error("immediately repeated query missed the cache")
	}
}

// TestSolveCacheBoundedHeap is the regression test for the unbounded
// sync.Map this cache replaced: a sweep over 10^6 distinct
// configurations must not grow the heap past a fixed budget, because
// the capacity bound caps residency. The configs are inserted through
// the internal store path (a million real bisections would dominate
// the suite's runtime; memory behavior is identical because the stored
// entry is the same either way).
func TestSolveCacheBoundedHeap(t *testing.T) {
	sc := NewSolveCache(DefaultCacheCapacity)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const distinct = 1_000_000
	base := Alewife(2, 1)
	for i := 0; i < distinct; i++ {
		key := base
		key.D = 1 + float64(i)*1e-3
		sc.store(&solveEntry{key: key, hash: key.hash()})
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := sc.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("cache holds %d entries, bound is %d", st.Entries, st.Capacity)
	}
	if st.Evictions != int64(distinct-st.Entries) {
		t.Errorf("evictions = %d, want %d", st.Evictions, distinct-st.Entries)
	}
	// Budget: DefaultCacheCapacity entries at a few hundred bytes each
	// is well under 1 MB; 8 MB leaves headroom for map growth slop
	// while still failing loudly if the bound ever stops holding (10^6
	// unbounded entries would be several hundred MB).
	const budget = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > budget {
		t.Errorf("heap grew %d MB over a 10^6-distinct-config sweep, budget %d MB",
			grew>>20, budget>>20)
	}
}

// TestSolveCacheHitLatency pins the acceptance criterion that a cache
// hit is at least 10× faster than a cold solve. Both sides are timed
// as batched samples — the clock pair costs tens of nanoseconds, the
// same order as a hit, so per-op timing would measure the timer, not
// the cache — and medians over many samples keep scheduler hiccups
// out. Cold and hot batches alternate, so host load that comes and
// goes during the test weighs on both sides alike. The timed loops
// call the solvers directly: a closure adds a few nanoseconds, which
// is a visible share of a hit.
func TestSolveCacheHitLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts nanosecond-scale timing")
	}
	cfg := Alewife(2, 4.06)
	const (
		samples = 64
		batch   = 32 // ops per timed sample
	)

	sc := NewSolveCache(0)
	if _, err := sc.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	cold := make([]time.Duration, samples)
	hot := make([]time.Duration, samples)
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := cfg.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		cold[i] = time.Since(t0) / batch
		t0 = time.Now()
		for j := 0; j < batch; j++ {
			if _, err := sc.Solve(cfg); err != nil {
				t.Fatal(err)
			}
		}
		hot[i] = time.Since(t0) / batch
	}
	coldMed, hotMed := durMedian(cold), durMedian(hot)
	if hotMed <= 0 {
		hotMed = 1 // clock resolution floor
	}
	if ratio := float64(coldMed) / float64(hotMed); ratio < 10 {
		t.Errorf("cache hit %v vs cold solve %v: %.1f× reduction, want ≥10×", hotMed, coldMed, ratio)
	} else {
		t.Logf("cache hit %v vs cold solve %v: %.0f× reduction", hotMed, coldMed, ratio)
	}
}

func durMedian(ds []time.Duration) time.Duration {
	s := make([]time.Duration, len(ds))
	copy(s, ds)
	for i := 1; i < len(s); i++ { // insertion sort; n is small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkSolveCacheHit(b *testing.B) {
	sc := NewSolveCache(0)
	cfg := Alewife(2, 4.06)
	if _, err := sc.Solve(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveCold(b *testing.B) {
	cfg := Alewife(2, 4.06)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
