package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"locality/internal/machine"
)

// Goldens pin the simulated outputs of the simulation workloads for
// seeds 1 and 2: every cell's full machine.Metrics, from which the sweep
// CSV row is formatted. Seed 2 is held out: tune nothing on it, and
// check every claim on it too. Regenerate after a deliberate change to
// simulated behaviour, from the repository root, with
//
//	bash cmd/bench/run.sh -workload <name> -seed <n> -write-golden

//go:embed testdata/golden/*.json
var goldenFS embed.FS

// goldenCell is one simulated cell's expected output.
type goldenCell struct {
	Key     string          `json:"key"`
	Metrics machine.Metrics `json:"metrics"`
}

// goldenEntry is one workload's expected outputs at one parameter set;
// it applies only to runs with exactly those parameters.
type goldenEntry struct {
	Params string       `json:"params"`
	Cells  []goldenCell `json:"cells"`
}

// goldenFile is one seed's goldens, keyed by workload name.
type goldenFile map[string]goldenEntry

func goldenName(seed int64) string { return fmt.Sprintf("seed%d.json", seed) }

// loadGolden returns the embedded goldens for seed; an empty file when
// the seed has none.
func loadGolden(seed int64) (goldenFile, error) {
	b, err := goldenFS.ReadFile("testdata/golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g, nil
}

// writeGolden stores one workload's entry in dir's file for seed,
// keeping the other workloads' entries.
func writeGolden(dir string, seed int64, workload string, e goldenEntry) error {
	path := filepath.Join(dir, goldenName(seed))
	g := goldenFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("golden %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	g[workload] = e
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
