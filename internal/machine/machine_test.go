package machine

import (
	"math"
	"strings"
	"testing"

	"locality/internal/cachesim"
	"locality/internal/mapping"
	"locality/internal/topology"
	"locality/internal/workload"
)

func smallMachine(t *testing.T, contexts int, m func(*topology.Torus) *mapping.Mapping) *Machine {
	t.Helper()
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, m(tor), contexts)
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

func ident(tor *topology.Torus) *mapping.Mapping { return mapping.Identity(tor) }
func rnd(tor *topology.Torus) *mapping.Mapping   { return mapping.Random(tor, 1) }

func TestConfigValidate(t *testing.T) {
	tor := topology.MustNew(4, 2)
	good := DefaultConfig(tor, mapping.Identity(tor), 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.Mapping = nil },
		func(c *Config) { c.Contexts = 0 },
		func(c *Config) { c.ClockRatio = 0 },
		func(c *Config) { c.Mapping = mapping.Identity(topology.MustNew(8, 2)) },
		func(c *Config) { c.CacheLines = 16; c.Contexts = 4 }, // words exceed cache
		func(c *Config) { c.Watchdog.StallCycles = -5 },       // a negative bound would disable it
		func(c *Config) { c.Watchdog = Watchdog{StallCycles: 10, CheckEvery: -1} },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(tor, mapping.Identity(tor), 2)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted the configuration", i)
		}
	}
}

// TestDefaultConfigCacheLines: the default cache keeps 4,096 lines
// until the state words (contexts × nodes) outgrow it, then doubles
// until each word has a line. Growth stops at maxCacheLines, so an
// absurd context count returns at once and fails Validate.
func TestDefaultConfigCacheLines(t *testing.T) {
	for _, c := range []struct{ k, n, contexts, lines int }{
		{8, 2, 4, 4096},
		{64, 2, 1, 4096},
		{65, 2, 1, 8192},
		{64, 2, 2, 8192},
		{32, 2, 9, 16384},
	} {
		tor := topology.MustNew(c.k, c.n)
		cfg := DefaultConfig(tor, mapping.Identity(tor), c.contexts)
		if cfg.CacheLines != c.lines {
			t.Errorf("k=%d n=%d p=%d: %d cache lines, want %d", c.k, c.n, c.contexts, cfg.CacheLines, c.lines)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("k=%d n=%d p=%d: %v", c.k, c.n, c.contexts, err)
		}
	}
	for _, c := range []struct{ k, n, contexts int }{
		{4, 2, maxCacheLines/16 + 1}, // one word past the cap
		{4, 1, 1<<60 + 1},            // words near 2^62, where doubling would overflow
		{4, 2, 1 << 60},              // words overflow an int
	} {
		tor := topology.MustNew(c.k, c.n)
		cfg := DefaultConfig(tor, mapping.Identity(tor), c.contexts)
		if cfg.CacheLines > maxCacheLines {
			t.Errorf("k=%d n=%d p=%d: %d cache lines, want at most %d", c.k, c.n, c.contexts, cfg.CacheLines, maxCacheLines)
		}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "cache lines") {
			t.Errorf("k=%d n=%d p=%d: error %v, want state words exceeding the cache", c.k, c.n, c.contexts, err)
		}
	}
}

// TestNewRejectsTooManyDimensions: the fabric simulates tori of at most
// 15 dimensions, and New passes its error through.
func TestNewRejectsTooManyDimensions(t *testing.T) {
	tor := topology.MustNew(2, 16)
	if _, err := New(DefaultConfig(tor, mapping.Identity(tor), 1)); err == nil || !strings.Contains(err.Error(), "at most 15 dimensions") {
		t.Errorf("error %v, want the fabric's 15-dimension limit", err)
	}
}

func TestRunProducesSteadyTraffic(t *testing.T) {
	mach := smallMachine(t, 1, ident)
	met := execMeasured(t, mach, 2000, 8000)
	if met.Transactions == 0 || met.Messages == 0 {
		t.Fatalf("no traffic: %+v", met)
	}
	if met.PCycles != 8000 {
		t.Errorf("window = %d, want 8000", met.PCycles)
	}
	if met.NCycles != 16000 {
		t.Errorf("network window = %d, want 16000 (2x clock)", met.NCycles)
	}
	// Identity mapping: every fabric message travels exactly 1 hop.
	if math.Abs(met.AvgDistance-1) > 1e-9 {
		t.Errorf("avg distance = %g, want 1 under identity mapping", met.AvgDistance)
	}
	// Message size mixes 8-flit control and 24-flit data: mean in (8,24).
	if met.MsgSize <= 8 || met.MsgSize >= 24 {
		t.Errorf("avg message size = %g flits, want within (8,24)", met.MsgSize)
	}
	// Messages per transaction: between 2 (pure read) and 8.
	if met.MsgsPerTxn < 2 || met.MsgsPerTxn > 8 {
		t.Errorf("g = %g, want within [2,8]", met.MsgsPerTxn)
	}
	if met.ChannelUtilization <= 0 || met.ChannelUtilization >= 1 {
		t.Errorf("utilization = %g, want in (0,1)", met.ChannelUtilization)
	}
	// Rates must be the reciprocals of the times.
	if math.Abs(met.MsgRate*met.InterMsgTime-1) > 1e-9 {
		t.Error("rm·tm != 1")
	}
	if math.Abs(met.TxnRate*met.InterTxnTime-1) > 1e-9 {
		t.Error("rt·tt != 1")
	}
}

func TestMeasuredDistanceTracksMapping(t *testing.T) {
	tor := topology.MustNew(4, 2)
	for _, m := range []*mapping.Mapping{mapping.Identity(tor), mapping.DiagonalShift(tor, 2), mapping.Random(tor, 5)} {
		mach, err := New(DefaultConfig(tor, m, 1))
		if err != nil {
			t.Fatal(err)
		}
		met := execMeasured(t, mach, 2000, 8000)
		want := m.AvgDistance(tor)
		if math.Abs(met.AvgDistance-want) > 0.4 {
			t.Errorf("%s: measured d = %g, mapping d = %g", m.Name, met.AvgDistance, want)
		}
	}
}

func TestLocalityImprovesPerformance(t *testing.T) {
	idealM := smallMachine(t, 1, ident)
	randomM := smallMachine(t, 1, rnd)
	idealMet := execMeasured(t, idealM, 2000, 10000)
	randomMet := execMeasured(t, randomM, 2000, 10000)
	if idealMet.InterTxnTime >= randomMet.InterTxnTime {
		t.Errorf("ideal tt %g should beat random tt %g", idealMet.InterTxnTime, randomMet.InterTxnTime)
	}
	if idealMet.MsgLatency >= randomMet.MsgLatency {
		t.Errorf("ideal Tm %g should beat random Tm %g", idealMet.MsgLatency, randomMet.MsgLatency)
	}
}

func TestMultithreadingMasksLatency(t *testing.T) {
	// With a random mapping, adding contexts should improve throughput
	// (lower tt): the extra contexts overlap communication latency.
	one := smallMachine(t, 1, rnd)
	two := smallMachine(t, 2, rnd)
	m1 := execMeasured(t, one, 2000, 10000)
	m2 := execMeasured(t, two, 2000, 10000)
	if m2.InterTxnTime >= m1.InterTxnTime {
		t.Errorf("2-context tt %g should beat 1-context tt %g", m2.InterTxnTime, m1.InterTxnTime)
	}
}

func TestDeterminism(t *testing.T) {
	a := smallMachine(t, 2, rnd)
	b := smallMachine(t, 2, rnd)
	ma := execMeasured(t, a, 1000, 4000)
	mb := execMeasured(t, b, 1000, 4000)
	if ma != mb {
		t.Errorf("identical configurations diverged:\n%+v\n%+v", ma, mb)
	}
}

func TestCoherenceInvariantAfterRun(t *testing.T) {
	mach := smallMachine(t, 2, rnd)
	execCycles(t, mach, 20000)
	// For every state word: at most one Modified copy machine-wide,
	// and never Modified alongside Shared copies.
	wl := mach.Workload().(workload.RelaxationConfig)
	tor := topology.MustNew(4, 2)
	for inst := 0; inst < 2; inst++ {
		for th := 0; th < tor.Nodes(); th++ {
			addr := wl.StateAddr(inst, th)
			owners, sharers := 0, 0
			for node := 0; node < tor.Nodes(); node++ {
				switch mach.Protocol().Cache(node).Lookup(addr) {
				case cachesim.Modified:
					owners++
				case cachesim.Shared:
					sharers++
				}
			}
			if owners > 1 {
				t.Errorf("word (%d,%d): %d Modified copies", inst, th, owners)
			}
			if owners == 1 && sharers > 0 {
				t.Errorf("word (%d,%d): Modified with %d Shared copies", inst, th, sharers)
			}
		}
	}
}

func TestProcessorsNeverPermanentlyStall(t *testing.T) {
	mach := smallMachine(t, 1, rnd)
	execCycles(t, mach, 5000)
	before := mach.Protocol().Snapshot().Transactions
	execCycles(t, mach, 5000)
	after := mach.Protocol().Snapshot().Transactions
	if after <= before {
		t.Fatalf("no forward progress: %d -> %d transactions", before, after)
	}
	for node := 0; node < 16; node++ {
		s := mach.Processor(node).Snapshot()
		if s.Busy == 0 {
			t.Errorf("node %d never did useful work", node)
		}
	}
}

func TestSlowNetworkRaisesLatency(t *testing.T) {
	tor := topology.MustNew(4, 2)
	fast := DefaultConfig(tor, mapping.Random(tor, 2), 1) // ratio 2
	slow := fast
	slow.ClockRatio = 1
	fm, err := New(fast)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := New(slow)
	if err != nil {
		t.Fatal(err)
	}
	fMet := execMeasured(t, fm, 2000, 8000)
	sMet := execMeasured(t, sm, 2000, 8000)
	// In P-cycle terms the slower network must hurt end performance.
	if sMet.InterTxnTime <= fMet.InterTxnTime {
		t.Errorf("slower network tt %g should exceed faster tt %g", sMet.InterTxnTime, fMet.InterTxnTime)
	}
}

func TestHWPointerOverflowTraps(t *testing.T) {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Identity(tor), 1)
	cfg.HWPointers = 1 // each word has up to 4 reading neighbors
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := execMeasured(t, mach, 2000, 8000)
	if met.SWTraps == 0 {
		t.Error("expected LimitLESS software traps with 1 hardware pointer")
	}
	full, err := New(DefaultConfig(tor, mapping.Identity(tor), 1))
	if err != nil {
		t.Fatal(err)
	}
	fullMet := execMeasured(t, full, 2000, 8000)
	if fullMet.SWTraps != 0 {
		t.Error("full-map directory must not trap")
	}
	// Traps slow the machine down.
	if met.InterTxnTime <= fullMet.InterTxnTime {
		t.Errorf("trapping machine tt %g should exceed full-map tt %g", met.InterTxnTime, fullMet.InterTxnTime)
	}
}

func TestMaskedRegimeAtIdealMapping(t *testing.T) {
	// With 4 contexts and single-hop communication, multithreading
	// fully masks latency: tt approaches the floor Tr + Tc and idle
	// time is negligible.
	mach := smallMachine(t, 4, ident)
	met := execMeasured(t, mach, 3000, 10000)
	grain := mach.Workload().(workload.RelaxationConfig).GrainEstimate(1)
	floor := grain + 11
	if met.InterTxnTime > floor*1.25 {
		t.Errorf("tt = %g, want near the multithreading floor %g", met.InterTxnTime, floor)
	}
}
