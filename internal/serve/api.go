// Package serve is the model-serving subsystem: a long-running
// HTTP/JSON front end over the analytic combined model. Point queries
// (/v1/solve, /v1/gain, /v1/sensitivity) are answered inline, /v1/solve
// through a request-coalescing batcher over a bounded core.SolveCache;
// grid queries (/v1/sweep) run their cells on the experiment engine,
// as cmd/sweep does, and stream the CSV back. The server exposes the
// obs endpoints (/metrics, /statusz, /healthz) and appends
// per-request-class rows to the JSONL run ledger.
package serve

import (
	"fmt"

	"locality/internal/core"
	"locality/internal/sweepgrid"
)

// ConfigSpec selects the model configuration a point query evaluates:
// a named preset with knobs, or a fully explicit core.Config. The
// zero-value knobs mean "preset default" so minimal requests like
// {"contexts": 4, "d": 2.5} work.
type ConfigSpec struct {
	// Preset names the calibrated parameter set: "alewife" (default)
	// or "alewife-large" (the Section 6 large-machine variant).
	Preset string `json:"preset,omitempty"`
	// Contexts is p, the hardware contexts per processor (default 2).
	Contexts int `json:"contexts,omitempty"`
	// D is the average message distance in hops (default 1, the ideal
	// mapping).
	D float64 `json:"d,omitempty"`
	// GrainFactor scales the preset's run length Tr (0 keeps it;
	// negative is refused).
	GrainFactor float64 `json:"grain_factor,omitempty"`
	// NetworkSpeed scales the network clock (0 keeps it; negative is
	// refused; 2 halves effective network latency contribution).
	NetworkSpeed float64 `json:"network_speed,omitempty"`
	// Config, when present, bypasses the preset entirely: an explicit
	// combined-model configuration (core.Config field names). D from
	// this spec still overrides when positive.
	Config *core.Config `json:"config,omitempty"`
}

// maxEchoBytes bounds how much of a rejected preset name an error
// echoes back.
const maxEchoBytes = 64

// Resolve builds the core configuration the request describes.
func (cs ConfigSpec) Resolve() (core.Config, error) {
	switch {
	case cs.GrainFactor < 0:
		return core.Config{}, fmt.Errorf("serve: grain_factor = %g, must be >= 0 (0 keeps the preset's)", cs.GrainFactor)
	case cs.NetworkSpeed < 0:
		return core.Config{}, fmt.Errorf("serve: network_speed = %g, must be >= 0 (0 keeps the preset's)", cs.NetworkSpeed)
	}
	if cs.Config != nil {
		cfg := *cs.Config
		if cs.D > 0 {
			cfg = cfg.WithDistance(cs.D)
		}
		return cfg, cfg.Validate()
	}
	contexts := cs.Contexts
	if contexts == 0 {
		contexts = 2
	}
	if contexts < 1 {
		return core.Config{}, fmt.Errorf("serve: contexts = %d, must be >= 1", contexts)
	}
	d := cs.D
	if d == 0 {
		d = 1
	}
	var cfg core.Config
	switch cs.Preset {
	case "", "alewife":
		cfg = core.Alewife(contexts, d)
	case "alewife-large":
		cfg = core.AlewifeLargeScale(contexts, d)
	default:
		name := cs.Preset
		if len(name) > maxEchoBytes {
			name = name[:maxEchoBytes] + "..."
		}
		return core.Config{}, fmt.Errorf("serve: unknown preset %q (have alewife, alewife-large)", name)
	}
	if cs.GrainFactor > 0 {
		cfg = cfg.WithGrainFactor(cs.GrainFactor)
	}
	if cs.NetworkSpeed > 0 {
		cfg = cfg.WithNetworkSpeed(cs.NetworkSpeed)
	}
	return cfg, nil
}

// SolveRequest is the /v1/solve body: the configuration to solve.
type SolveRequest struct {
	ConfigSpec
}

// SolveResponse carries the combined-model operating point.
type SolveResponse struct {
	Solution core.Solution `json:"solution"`
	// Coalesced reports that this request shared an in-flight solve
	// with an identical concurrent request rather than starting its
	// own.
	Coalesced bool `json:"coalesced,omitempty"`
}

// GainRequest is the /v1/gain body: the configuration plus the machine
// size whose locality gain to compute.
type GainRequest struct {
	ConfigSpec
	// Nodes is N, the machine size (>= 2).
	Nodes float64 `json:"nodes"`
}

// GainResponse is core.ExpectedGain's result: ideal and random-mapping
// operating points and their performance ratio.
type GainResponse struct {
	core.GainResult
}

// SensitivityRequest is the /v1/sensitivity body. Zero-valued fields
// take the Alewife calibration defaults; negative ones are refused.
type SensitivityRequest struct {
	// Contexts is p (default 2).
	Contexts int `json:"contexts,omitempty"`
	// MessagesPer is g, messages per transaction (default the Alewife
	// calibration).
	MessagesPer float64 `json:"messages_per,omitempty"`
	// CriticalPath is c, critical-path messages per transaction
	// (default the calibrated value for the context count).
	CriticalPath float64 `json:"critical_path,omitempty"`
}

// SensitivityResponse carries s = p·g/c, the latency sensitivity.
type SensitivityResponse struct {
	Sensitivity float64 `json:"sensitivity"`
}

// SweepRequest is the /v1/sweep body: a sweepgrid specification. The
// response streams the sweep CSV — kernel comment, header, rows in
// grid order — byte-identical to cmd/sweep run on the same grid.
type SweepRequest struct {
	sweepgrid.Spec
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error string `json:"error"`
}
