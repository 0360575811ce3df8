// Package sweepgrid is the single definition of a sweep grid: how a
// (mappings × context counts) specification expands into cells, how a
// cell becomes a machine configuration, and how its measurements
// become a CSV row. cmd/sweep and the model-serving /v1/sweep endpoint
// both run these cells on the experiment engine, so a grid produces
// byte-identical rows from either — the property the serving layer's
// parity test pins.
package sweepgrid

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/mapsel"
	"locality/internal/netsim"
	"locality/internal/sim"
	"locality/internal/topology"
	"locality/internal/workload"
)

// Spec is the serializable description of a sweep grid. The zero value
// of every optional field matches cmd/sweep's flag default where one
// exists, so a Spec round-tripped through JSON runs the same grid the
// CLI would.
type Spec struct {
	Radix    int    `json:"k"`
	Dims     int    `json:"n"`
	Contexts []int  `json:"contexts"`
	Mappings string `json:"mappings"`
	Warmup   int64  `json:"warmup"`
	Window   int64  `json:"window"`
	Ratio    int    `json:"ratio"`
	Prefetch bool   `json:"prefetch,omitempty"`
	Kernel   string `json:"kernel,omitempty"`
	Watchdog int64  `json:"watchdog,omitempty"`
}

// Grid is a resolved Spec: topology constructed, mapping selectors
// expanded, kernel parsed, watchdog checked. Cells are indexed
// 0..Len()-1 in the CSV's historical row order — contexts-major,
// mappings-minor.
type Grid struct {
	Spec   Spec
	Tor    *topology.Torus
	Maps   []*mapping.Mapping
	Kernel sim.KernelKind
}

// maxNodes and maxContexts cap a grid's machine at what the .lckp and
// .lref decoders accept; 2^20 nodes is ten times the largest machine
// the repo simulates. A cell's state words (contexts × nodes) are
// capped at maxNodes too: each is a context's program state and a
// cache line, so the node cap's machine runs at one context.
const (
	maxNodes    = 1 << 20
	maxContexts = 1024
)

// New resolves a Spec into a runnable Grid.
func New(spec Spec) (*Grid, error) {
	if len(spec.Contexts) == 0 {
		return nil, fmt.Errorf("sweepgrid: empty context list")
	}
	for _, p := range spec.Contexts {
		if p < 1 || p > maxContexts {
			return nil, fmt.Errorf("sweepgrid: bad context count %d, want 1 to %d", p, maxContexts)
		}
	}
	if spec.Warmup < 0 || spec.Window <= 0 {
		return nil, fmt.Errorf("sweepgrid: need warmup >= 0 and window > 0, have %d/%d", spec.Warmup, spec.Window)
	}
	if spec.Ratio < 0 {
		return nil, fmt.Errorf("sweepgrid: clock ratio %d, must be ≥ 0 (0 selects 2)", spec.Ratio)
	}
	if spec.Ratio == 0 {
		spec.Ratio = 2 // cmd/sweep's -ratio default
	}
	tor, err := topology.New(spec.Radix, spec.Dims)
	if err != nil {
		return nil, err
	}
	// Refused before the selectors resolve: each mapping is a per-node
	// placement table, built whether or not a cell could run.
	if tor.N() > netsim.MaxDims {
		return nil, fmt.Errorf("sweepgrid: %d dimensions, a network has at most %d", tor.N(), netsim.MaxDims)
	}
	if tor.Nodes() > maxNodes {
		return nil, fmt.Errorf("sweepgrid: %d^%d = %d nodes, more than the %d a checkpoint or trace can hold", spec.Radix, spec.Dims, tor.Nodes(), maxNodes)
	}
	if p := slices.Max(spec.Contexts); p > maxNodes/tor.Nodes() {
		return nil, fmt.Errorf("sweepgrid: %d contexts × %d nodes = %d state words, more than %d", p, tor.Nodes(), p*tor.Nodes(), maxNodes)
	}
	sel := spec.Mappings
	if sel == "" {
		sel = "suite"
	}
	maps, err := mapsel.List(tor, sel)
	if err != nil {
		return nil, err
	}
	kname := spec.Kernel
	if kname == "" {
		kname = "event"
	}
	kernel, err := sim.ParseKernel(kname)
	if err != nil {
		return nil, err
	}
	if spec.Watchdog < 0 {
		return nil, fmt.Errorf("sweepgrid: watchdog bound %d, must be ≥ 0", spec.Watchdog)
	}
	return &Grid{Spec: spec, Tor: tor, Maps: maps, Kernel: kernel}, nil
}

// Len counts the grid's cells.
func (g *Grid) Len() int { return len(g.Spec.Contexts) * len(g.Maps) }

// Cell returns cell i's mapping and context count in grid order:
// contexts-major, mappings-minor.
func (g *Grid) Cell(i int) (*mapping.Mapping, int) {
	return g.Maps[i%len(g.Maps)], g.Spec.Contexts[i/len(g.Maps)]
}

// Key labels cell i for progress displays and engine cells.
func (g *Grid) Key(i int) string {
	m, p := g.Cell(i)
	return fmt.Sprintf("%s p=%d", m.Name, p)
}

// header is the sweep CSV's column row.
var header = []string{"mapping", "d", "contexts", "prefetch", "B", "g", "tm", "rm", "Tm", "Tt", "tt", "rt", "utilization"}

// Header is the CSV header row.
func (g *Grid) Header() []string { return header }

// KernelComment is the "# kernel=<kind>" provenance line written as a
// sweep CSV's first line.
func (g *Grid) KernelComment() string { return "# kernel=" + g.Kernel.String() }

// fmtFloat is the sweep CSV's float format; every producer must use it
// for rows to compare byte-equal.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Prefix is cell i's identity columns — mapping, d, contexts, prefetch
// — shared by measurement and error rows.
func (g *Grid) Prefix(i int) []string {
	m, p := g.Cell(i)
	return []string{m.Name, fmtFloat(m.AvgDistance(g.Tor)), strconv.Itoa(p), strconv.FormatBool(g.Spec.Prefetch)}
}

// Config builds cell i's machine configuration: the same defaults,
// kernel, ratio, workload, and watchdog shaping cmd/sweep applies.
// Callers may attach observability (telemetry, tracing, capture)
// afterwards; none of it changes the simulated results.
func (g *Grid) Config(i int) machine.Config {
	m, p := g.Cell(i)
	cfg := machine.DefaultConfig(g.Tor, m, p)
	cfg.Kernel = g.Kernel
	cfg.ClockRatio = g.Spec.Ratio
	if g.Spec.Prefetch {
		cfg.Workload = workload.RelaxationConfig{
			Graph:        g.Tor,
			Map:          m,
			Instances:    p,
			LineSize:     cfg.LineSize,
			ReadCompute:  cfg.ReadCompute,
			WriteCompute: cfg.WriteCompute,
			Prefetch:     true,
		}
	}
	cfg.Watchdog = machine.Watchdog{StallCycles: g.Spec.Watchdog}
	return cfg
}

// FormatRow renders cell i's measurements as its CSV row.
func (g *Grid) FormatRow(i int, met machine.Metrics) []string {
	return append(g.Prefix(i),
		fmtFloat(met.MsgSize), fmtFloat(met.MsgsPerTxn), fmtFloat(met.InterMsgTime), fmtFloat(met.MsgRate),
		fmtFloat(met.MsgLatency), fmtFloat(met.TxnLatency), fmtFloat(met.InterTxnTime), fmtFloat(met.TxnRate),
		fmtFloat(met.ChannelUtilization),
	)
}

// ErrorRow renders a failed cell: identity prefix, error=<message> in
// the first measurement column, empty padding to full width.
func (g *Grid) ErrorRow(i int, err error) []string {
	row := append(g.Prefix(i), "error="+err.Error())
	for len(row) < len(header) {
		row = append(row, "")
	}
	return row
}

// Measured refuses a cell whose window injected no fabric message or
// completed no transaction: its rate, latency and utilization columns
// would all read 0, a row no reader can tell from a measurement. Run
// and cmd/sweep apply it after Execute, so the cell becomes an error
// row.
func (g *Grid) Measured(met machine.Metrics) error {
	if met.Messages == 0 || met.Transactions == 0 {
		return fmt.Errorf("sweepgrid: no traffic measured in the %d-P-cycle window (%d messages and %d transactions)",
			g.Spec.Window, met.Messages, met.Transactions)
	}
	return nil
}

// Run builds and measures cell i with no observability attached.
func (g *Grid) Run(ctx context.Context, i int) (machine.Metrics, error) {
	mach, err := machine.New(g.Config(i))
	if err != nil {
		return machine.Metrics{}, err
	}
	res, err := mach.Execute(ctx, machine.RunSpec{Warmup: g.Spec.Warmup, Window: g.Spec.Window})
	if err != nil {
		return machine.Metrics{}, err
	}
	if err := g.Measured(res.Metrics); err != nil {
		return machine.Metrics{}, err
	}
	return res.Metrics, nil
}

// FileStem turns cell i's mapping/context pair into a filesystem-safe
// output file stem for per-cell artifacts.
func (g *Grid) FileStem(i int) string {
	m, p := g.Cell(i)
	r := strings.NewReplacer(":", "-", "/", "-", " ", "_")
	return fmt.Sprintf("%s_p%d", r.Replace(m.Name), p)
}
