package obs

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/telemetry"
	"locality/internal/topology"
)

// testMachine builds a small instrumented machine; attach is applied
// to the config before construction.
func testMachine(t *testing.T, attach func(*machine.Config)) *machine.Machine {
	t.Helper()
	tor := topology.MustNew(4, 2)
	cfg := machine.DefaultConfig(tor, mapping.Random(tor, 1), 2)
	cfg.Telemetry = telemetry.New()
	if attach != nil {
		attach(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBridgeConcurrentReaders is the race-detector test for the
// snapshot bridge: one goroutine runs an instrumented machine whose
// Observer publishes at every chunk boundary, while reader goroutines
// hammer every bridge read path (Snapshot, Health, the full Prometheus
// exposition) and validate each exposition they scrape. Run with -race
// this proves the single-writer / many-reader contract holds with zero
// locks in the simulation path.
func TestBridgeConcurrentReaders(t *testing.T) {
	b := NewBridge()
	m := testMachine(t, func(cfg *machine.Config) {
		cfg.Observer = b.MachineObserver("bridge-test", 12000)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := b.Snapshot(); s != nil {
					if s.Cycle < 0 || len(s.Metrics) == 0 {
						t.Error("reader saw malformed snapshot")
						return
					}
				}
				b.Health()
				var buf bytes.Buffer
				if err := WriteExposition(&buf, b); err != nil {
					t.Errorf("exposition during run: %v", err)
					return
				}
				if err := ValidateExposition(&buf); err != nil {
					t.Errorf("exposition during run is invalid: %v", err)
					return
				}
			}
		}()
	}

	if _, err := m.Execute(context.Background(), machine.RunSpec{Warmup: 2000, Window: 10000}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	s := b.Snapshot()
	if s == nil {
		t.Fatal("no snapshot published by a 12000-cycle run")
	}
	if s.Label != "bridge-test" || s.Target != 12000 {
		t.Fatalf("snapshot identity = %q/%d, want bridge-test/12000", s.Label, s.Target)
	}
	if s.Cycle == 0 || s.Seq == 0 {
		t.Fatalf("snapshot never advanced: cycle=%d seq=%d", s.Cycle, s.Seq)
	}
}

// TestObserverIsInert verifies observational inertness: the same
// machine run with and without a publishing observer produces
// identical measurement metrics. This is the byte-parity contract CI
// also checks end to end on sweep CSV output.
func TestObserverIsInert(t *testing.T) {
	run := func(observed bool) machine.Metrics {
		b := NewBridge()
		m := testMachine(t, func(cfg *machine.Config) {
			if observed {
				cfg.Observer = b.MachineObserver("parity", 6000)
			}
		})
		res, err := m.Execute(context.Background(), machine.RunSpec{Warmup: 1000, Window: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	plain, observed := run(false), run(true)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer changed the run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestPublishRateAndETA exercises the EWMA rate and ETA computation by
// seeding the bridge with a fabricated earlier snapshot.
func TestPublishRateAndETA(t *testing.T) {
	b := NewBridge()
	b.cur.Store(&Snapshot{
		Sample: Sample{Label: "cell", Cycle: 1000, Target: 101000},
		Seq:    1, At: time.Now().Add(-time.Second),
	})
	b.Publish(Sample{Label: "cell", Cycle: 2000, Target: 101000})
	s := b.Snapshot()
	if s.CyclesPerSec < 500 || s.CyclesPerSec > 2000 {
		t.Fatalf("rate = %.0f cyc/s, want ~1000 from 1000 cycles in ~1s", s.CyclesPerSec)
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA = %v, want positive with %d cycles left", s.ETA, s.Target-s.Cycle)
	}
	// A different label must not inherit the rate: cross-cell deltas
	// are meaningless in a sweep.
	b.Publish(Sample{Label: "other", Cycle: 5000, Target: 10000})
	if s2 := b.Snapshot(); s2.CyclesPerSec != 0 {
		t.Fatalf("label change kept rate %.0f, want 0", s2.CyclesPerSec)
	}
}

// TestHealthStaleness covers the bridge-side watchdog: a snapshot that
// stops refreshing flips health to degraded once past the bound.
func TestHealthStaleness(t *testing.T) {
	b := NewBridge()
	if h := b.Health(); !h.Healthy() {
		t.Fatalf("empty bridge health = %+v, want ok", h)
	}
	b.SetStaleAfter(time.Millisecond)
	if h := b.Health(); !h.Healthy() {
		t.Fatalf("pre-publish health = %+v, want ok (machine may still be constructing)", h)
	}
	b.Publish(Sample{Label: "x", Cycle: 1})
	time.Sleep(5 * time.Millisecond)
	if h := b.Health(); h.Healthy() {
		t.Fatal("stale snapshot still reports ok")
	}
	b.SetStaleAfter(time.Hour)
	if h := b.Health(); !h.Healthy() {
		t.Fatalf("fresh-enough snapshot degraded: %+v", h)
	}
}
