package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"locality/internal/machine"
)

// The run ledger is an append-only JSONL file (one JSON object per
// line) that every command adds a record to when it finishes: what was
// run (config fingerprint digest, kernel), on what (GOMAXPROCS,
// CPU count), and how it went (wall time, peak heap, cycles per
// second, final metrics). Appending one line keeps concurrent writers
// safe on POSIX (O_APPEND) and keeps the file greppable; cmd/perfcheck
// reads it back to gate performance regressions against history.

// RunRecord is one ledger line.
type RunRecord struct {
	// Time is the record's wall-clock timestamp (RFC3339).
	Time string `json:"time"`
	// Cmd is the writing command ("simrun", "sweep", "scalebench",
	// "perfcheck"); Label narrows it to the cell or scenario.
	Cmd   string `json:"cmd"`
	Label string `json:"label,omitempty"`
	// Fingerprint is the machine configuration digest
	// (checkpoint.Fingerprint.Digest), so records are comparable only
	// when the simulated machine actually matched.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Machine shape, for human grepping; the fingerprint is the
	// authoritative identity.
	Radix    int    `json:"radix,omitempty"`
	Dims     int    `json:"dims,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Contexts int    `json:"contexts,omitempty"`
	Mapping  string `json:"mapping,omitempty"`
	Kernel   string `json:"kernel,omitempty"`
	// Host execution environment.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// Outcome.
	WallSeconds  float64 `json:"wall_seconds"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	PCycles      int64   `json:"p_cycles,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	Error        string  `json:"error,omitempty"`
	// Served-query summary, written by modelserver per request class
	// and by perfcheck's served-latency probe.
	Requests  int64   `json:"requests,omitempty"`
	P50Micros float64 `json:"p50_micros,omitempty"`
	P99Micros float64 `json:"p99_micros,omitempty"`
	// Metrics is the run's final measurement-window summary, when the
	// command produced one.
	Metrics *machine.Metrics `json:"metrics,omitempty"`
}

// NewRunRecord starts a record for cmd with the environment fields
// filled in; the caller completes it and calls AppendLedger.
func NewRunRecord(cmd string) RunRecord {
	return RunRecord{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Cmd:        cmd,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// FillMachine stamps the record with a machine's configuration
// identity and shape.
func (r *RunRecord) FillMachine(m *machine.Machine) {
	fp := m.Fingerprint()
	r.Fingerprint = fp.Digest()
	r.Radix = fp.Radix
	r.Dims = fp.Dims
	if fp.Radix > 0 {
		n := 1
		for i := 0; i < fp.Dims; i++ {
			n *= fp.Radix
		}
		r.Nodes = n
	}
	r.Contexts = fp.Contexts
	r.Mapping = fp.MappingName
}

// FillOutcome stamps wall time, throughput, and current heap peak.
func (r *RunRecord) FillOutcome(wall time.Duration, cycles int64) {
	r.WallSeconds = wall.Seconds()
	r.PCycles = cycles
	if wall > 0 && cycles > 0 {
		r.CyclesPerSec = float64(cycles) / wall.Seconds()
	}
	r.PeakHeapMB = HeapMB()
}

// HeapMB returns the current in-use heap in MiB — sampled at run end
// it approximates the peak, since simulation state only grows during a
// run.
func HeapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// AppendLedger appends one record to the JSONL ledger at path,
// creating the file if needed. Each record is a single O_APPEND write,
// so concurrent commands interleave whole lines, never fragments.
func AppendLedger(path string, rec RunRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: marshal ledger record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: open ledger: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("obs: append ledger: %w", err)
	}
	return f.Close()
}

// ReadLedger reads every parseable record from the ledger, oldest
// first. Unparseable lines — a torn tail from a crashed writer — are
// skipped rather than fatal, because the ledger is an append-only log
// whose history must stay readable past one bad line. A missing file
// is an empty ledger.
func ReadLedger(path string) ([]RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("obs: open ledger: %w", err)
	}
	defer f.Close()
	var recs []RunRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec RunRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Time != "" {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("obs: read ledger: %w", err)
	}
	return recs, nil
}
