package machine

import (
	"errors"
	"fmt"
)

// ErrStalled is the sentinel error wrapped by every StallReport, so
// callers can detect watchdog aborts with errors.Is.
var ErrStalled = errors.New("no forward progress")

// StallReport is the typed error a watchdog raises when a simulator
// component makes no forward progress for longer than its bound. It
// carries a structured diagnostic snapshot instead of letting the
// simulation spin forever.
type StallReport struct {
	// Component names the stalled subsystem ("network", "protocol").
	Component string
	// Cycle is the simulation time at detection (the component's own
	// clock domain).
	Cycle int64
	// StalledFor is how many cycles passed without progress.
	StalledFor int64
	// Detail is a one-line description of the stuck entity.
	Detail string
	// Snapshot is the multi-line diagnostic state dump (VC occupancy,
	// directory state, …).
	Snapshot string
	// Checkpoint is the path of the emergency machine checkpoint written
	// at detection, when checkpointing is configured; empty otherwise.
	// Restoring it reproduces the stall from just before the hang.
	Checkpoint string
}

// Error implements the error interface.
func (r *StallReport) Error() string {
	return fmt.Sprintf("machine: %s stalled at cycle %d (no progress for %d cycles): %s",
		r.Component, r.Cycle, r.StalledFor, r.Detail)
}

// Unwrap makes errors.Is(err, ErrStalled) true.
func (r *StallReport) Unwrap() error { return ErrStalled }

// Watchdog configures the progress watchdogs: how long a component may
// go without forward progress before the simulation aborts with a
// StallReport. The zero value disables the watchdogs.
type Watchdog struct {
	// StallCycles is the progress bound in processor cycles (0 = off).
	StallCycles int64
	// CheckEvery is the polling interval in processor cycles; zero
	// defaults to StallCycles/4 (at least 1).
	CheckEvery int64
}

// Enabled reports whether the watchdog is active.
func (w Watchdog) Enabled() bool { return w.StallCycles > 0 }

// Interval returns the effective polling interval.
func (w Watchdog) Interval() int64 {
	if w.CheckEvery > 0 {
		return w.CheckEvery
	}
	iv := w.StallCycles / 4
	if iv < 1 {
		iv = 1
	}
	return iv
}

// validate rejects negative bounds, which would otherwise disable the
// watchdog silently.
func (w Watchdog) validate() error {
	if w.StallCycles < 0 || w.CheckEvery < 0 {
		return fmt.Errorf("machine: watchdog bound %d and interval %d, must be ≥ 0", w.StallCycles, w.CheckEvery)
	}
	return nil
}
