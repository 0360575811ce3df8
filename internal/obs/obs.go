// Package obs is the live observability layer: it lets a long-running
// simulation be watched while it executes instead of only dumped after
// it finishes.
//
// The design problem is that every substrate — the metrics registry,
// the kernels, the machine — is deliberately single-threaded: one
// goroutine owns a simulation and nothing else may touch its state.
// The bridge in this package keeps that invariant. The run loop
// (machine.Config.Observer at chunk boundaries, engine.Exec.Observer
// at cell boundaries) builds an immutable Snapshot — a typed registry
// export plus clock, rate, and ETA — and stores it into an atomic
// pointer. HTTP handlers (server.go) only ever Load the pointer and
// read the frozen value. The simulation never blocks on an observer
// and observers never read live state, which is what makes an
// observed run byte-identical to an unobserved one and the whole
// arrangement race-clean by construction.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/telemetry"
)

// Sample is what a run loop publishes at a boundary: which run it is,
// where its clock stands, and the registry's typed export at that
// instant. The Metrics slice must not be mutated after Publish — the
// bridge hands it out to concurrent readers as-is.
type Sample struct {
	// Label names the run ("simrun", "random:1 p=2", "gainscale
	// k=320"); sweeps publish one label per cell.
	Label string
	// Cycle is the machine's current P-cycle.
	Cycle int64
	// Target is the total P-cycles the run will execute (warmup +
	// window); 0 when unknown. Used for the ETA.
	Target int64
	// Metrics is the registry export backing /metrics and /statusz.
	Metrics []telemetry.Metric
}

// Snapshot is one published Sample plus the bridge's bookkeeping:
// sequence number, publication time, and the smoothed simulation rate
// with its derived ETA. Snapshots are immutable once stored.
type Snapshot struct {
	Sample
	// Seq increments on every publish, across all publishers.
	Seq int64
	// At is the publication wall-clock time.
	At time.Time
	// CyclesPerSec is an exponentially smoothed simulation rate,
	// measured between consecutive publishes of the same label.
	CyclesPerSec float64
	// ETA is the projected time to Target at CyclesPerSec (0 when
	// either is unknown).
	ETA time.Duration
}

// GridProgress is an engine cell-boundary sample with its publication
// time, for sweep-level progress in /statusz.
type GridProgress struct {
	engine.Progress
	At time.Time
}

// Health is the /healthz verdict.
type Health struct {
	Status string `json:"status"` // "ok" or "degraded"
	Reason string `json:"reason,omitempty"`
}

// Healthy reports whether the status is "ok".
func (h Health) Healthy() bool { return h.Status == "ok" }

// failure is a recorded degradation (watchdog stall, run error).
type failure struct {
	component string
	err       error
}

// Bridge carries immutable snapshots from the single-threaded run
// loops to concurrent HTTP readers. The zero value is not usable;
// build with NewBridge. All methods are safe for concurrent use —
// publishers race only on who stored last, and readers only ever see
// complete snapshots.
type Bridge struct {
	seq   atomic.Int64
	cur   atomic.Pointer[Snapshot]
	grid  atomic.Pointer[GridProgress]
	fail  atomic.Pointer[failure]
	start time.Time
}

// NewBridge returns an empty bridge.
func NewBridge() *Bridge { return &Bridge{start: time.Now()} }

// Start returns when the bridge was created (the run's wall origin).
func (b *Bridge) Start() time.Time { return b.start }

// Publish stores an immutable snapshot of the sample, stamping it with
// the next sequence number and the smoothed rate/ETA computed against
// the previous snapshot of the same label. Lock-free: concurrent
// publishers (sweep cells) interleave by last-writer-wins, and each
// stored snapshot is internally consistent.
func (b *Bridge) Publish(s Sample) {
	now := time.Now()
	snap := &Snapshot{Sample: s, Seq: b.seq.Add(1), At: now}
	if prev := b.cur.Load(); prev != nil && prev.Label == s.Label && s.Cycle > prev.Cycle {
		if dt := now.Sub(prev.At).Seconds(); dt > 0 {
			inst := float64(s.Cycle-prev.Cycle) / dt
			if prev.CyclesPerSec > 0 {
				// EWMA smooths chunk-to-chunk scheduler jitter while
				// tracking real rate changes within a few publishes.
				snap.CyclesPerSec = 0.7*prev.CyclesPerSec + 0.3*inst
			} else {
				snap.CyclesPerSec = inst
			}
		} else {
			snap.CyclesPerSec = prev.CyclesPerSec
		}
	}
	if snap.CyclesPerSec > 0 && s.Target > s.Cycle {
		snap.ETA = time.Duration(float64(s.Target-s.Cycle) / snap.CyclesPerSec * float64(time.Second))
	}
	b.cur.Store(snap)
}

// Snapshot returns the most recent published snapshot, or nil before
// the first publish. The returned value is immutable.
func (b *Bridge) Snapshot() *Snapshot { return b.cur.Load() }

// PublishGrid stores a sweep-level progress sample; wire it as
// engine.Exec.Observer.
func (b *Bridge) PublishGrid(p engine.Progress) {
	b.grid.Store(&GridProgress{Progress: p, At: time.Now()})
}

// Grid returns the most recent grid progress, or nil.
func (b *Bridge) Grid() *GridProgress { return b.grid.Load() }

// MachineObserver adapts the bridge to machine.Config.Observer: at
// every run-loop chunk boundary it publishes the machine's clock and
// registry export under the given label. target is the run's total
// P-cycle count (warmup + window) for the ETA; pass 0 when unknown.
// The observer only reads, so the observed run stays byte-identical.
func (b *Bridge) MachineObserver(label string, target int64) func(*machine.Machine) {
	return func(m *machine.Machine) {
		b.Publish(Sample{
			Label:   label,
			Cycle:   m.Now(),
			Target:  target,
			Metrics: m.Telemetry().Export(),
		})
	}
}

// Fail records a degradation — a watchdog stall report, a run error —
// flipping /healthz to degraded. The first failure wins; later ones
// are ignored so the root cause is what the probe reports.
func (b *Bridge) Fail(component string, err error) {
	if err == nil {
		return
	}
	b.fail.CompareAndSwap(nil, &failure{component: component, err: err})
}

// Health derives the /healthz verdict: degraded once a failure has
// been recorded, ok otherwise (including before the first publish, so
// probes pass while a large machine is still constructing).
func (b *Bridge) Health() Health {
	if f := b.fail.Load(); f != nil {
		return Health{Status: "degraded", Reason: fmt.Sprintf("%s: %v", f.component, f.err)}
	}
	return Health{Status: "ok"}
}
