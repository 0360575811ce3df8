package machine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"locality/internal/checkpoint"
	"locality/internal/mapping"
	"locality/internal/procsim"
	"locality/internal/replay"
	"locality/internal/sim"
	"locality/internal/topology"
	"locality/internal/trace"
)

// buildCkptMachine is buildParityMachine plus a checkpoint spec; the
// spec cannot be injected after New because Validate must see it.
func buildCkptMachine(t *testing.T, c parityCell, mode sim.KernelKind, tr *trace.Tracer, ck CheckpointSpec) *Machine {
	t.Helper()
	tor, m := parityTopoMapping(c)
	cfg := DefaultConfig(tor, m, c.contexts)
	cfg.Kernel = mode
	cfg.Trace = tr
	cfg.LocalDelay = c.localDelay
	cfg.Watchdog = c.watchdog
	cfg.Checkpoint = ck
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// ckptResult is everything a run's byte-identity is judged on.
type ckptResult struct {
	met    Metrics
	row    string
	procs  []procsim.Stats
	events []trace.Event
	now    int64
}

func ckptCollect(mach *Machine, met Metrics, tr *trace.Tracer) ckptResult {
	procs := make([]procsim.Stats, 0)
	for node := 0; node < mach.cfg.Topo.Nodes(); node++ {
		procs = append(procs, mach.Processor(node).Snapshot())
	}
	events := tr.Filter(func(e trace.Event) bool { return !kernelMeta(e) })
	return ckptResult{met: met, row: sweepRow(met), procs: procs, events: events, now: mach.Now()}
}

// listCheckpoints returns the periodic snapshot files in dir sorted by
// the cycle embedded in their names.
func listCheckpoints(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.lckp"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(paths, func(i, j int) bool {
		var a, b int64
		fmt.Sscanf(filepath.Base(paths[i]), "ckpt-%d.lckp", &a)
		fmt.Sscanf(filepath.Base(paths[j]), "ckpt-%d.lckp", &b)
		return a < b
	})
	return paths
}

// restoreAndFinish loads one snapshot file into a fresh machine (fresh
// tracer) and runs the experiment protocol to the end under the given
// checkpoint spec.
func restoreAndFinish(t *testing.T, c parityCell, mode sim.KernelKind, path string, warmup, window int64, spec CheckpointSpec) (ckptResult, *checkpoint.Checkpoint) {
	t.Helper()
	ck, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	tor, m := parityTopoMapping(c)
	cfg := DefaultConfig(tor, m, c.contexts)
	cfg.Kernel = mode
	tr := trace.New(1 << 14)
	cfg.Trace = tr
	cfg.LocalDelay = c.localDelay
	cfg.Watchdog = c.watchdog
	cfg.Checkpoint = spec
	mach, err := RestoreFrom(cfg, ck)
	if err != nil {
		t.Fatalf("restoring %s: %v", path, err)
	}
	if mach.Now() != ck.PNow {
		t.Fatalf("restored clock %d, checkpoint taken at %d", mach.Now(), ck.PNow)
	}
	res, err := mach.Execute(context.Background(), RunSpec{Warmup: warmup, Window: window})
	if err != nil {
		t.Fatalf("resuming from %s: %v", path, err)
	}
	return ckptCollect(mach, res.Metrics, tr), ck
}

// eventsFrom filters a full-run trace down to the events a run
// restored at cycle c would re-produce.
func eventsFrom(events []trace.Event, c int64) []trace.Event {
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		if e.Cycle >= c {
			out = append(out, e)
		}
	}
	return out
}

func compareCkptResults(t *testing.T, label string, want, got ckptResult) {
	t.Helper()
	if want.now != got.now {
		t.Errorf("%s: clocks diverged: want %d, got %d", label, want.now, got.now)
	}
	// Full Metrics, including CyclesTicked/CyclesSkipped: the restored
	// run must reproduce the kernel's execution accounting too.
	if !reflect.DeepEqual(want.met, got.met) {
		t.Errorf("%s: Metrics differ:\n want %+v\n got  %+v", label, want.met, got.met)
	}
	if want.row != got.row {
		t.Errorf("%s: sweep CSV rows differ:\n want %s\n got  %s", label, want.row, got.row)
	}
	if !reflect.DeepEqual(want.procs, got.procs) {
		t.Errorf("%s: per-processor accounting differs", label)
	}
	if !reflect.DeepEqual(want.events, got.events) {
		n := len(want.events)
		if len(got.events) < n {
			n = len(got.events)
		}
		for i := 0; i < n; i++ {
			if want.events[i] != got.events[i] {
				t.Errorf("%s: trace streams diverge at event %d:\n want %v\n got  %v", label, i, want.events[i], got.events[i])
				break
			}
		}
		t.Errorf("%s: trace streams differ (%d want, %d got)", label, len(want.events), len(got.events))
	}
}

// ckptKernels is the kernel axis of the restore grid.
var ckptKernels = []struct {
	mode  sim.KernelKind
	label string
}{
	{sim.KernelEvent, "event"},
	{sim.KernelTick, "tick"},
}

// TestCheckpointRestoreParity is the PR's core guarantee, run as a
// differential grid over mappings × context counts × an armed or
// disarmed watchdog × local delivery delays × every kernel: restore at
// cycle C and run to the end, and the metrics, sweep CSV row,
// per-processor accounting, and post-C trace events are
// byte-identical to the uninterrupted run — and the run
// that wrote the checkpoints is itself byte-identical to one that
// never checkpointed.
func TestCheckpointRestoreParity(t *testing.T) {
	const warmup, window = 500, 2000
	// 293 is prime: snapshot cycles never align with the 4096-cycle
	// poll interval, the watchdog interval, or the warmup boundary —
	// every restore re-enters the run loop mid-chunk.
	const every = 293
	for _, kc := range ckptKernels {
		mode := kc.mode
		for _, c := range parityGrid() {
			c, mode := c, mode
			t.Run(kc.label+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()

				// Reference: no checkpointing configured at all.
				trRef := trace.New(1 << 14)
				ref := buildParityMachine(t, c, mode, trRef)
				metRef, err := execMeasuredChecked(context.Background(), ref, warmup, window)
				if err != nil {
					t.Fatal(err)
				}
				want := ckptCollect(ref, metRef, trRef)

				// Run A: same machine with periodic checkpoints enabled.
				trA := trace.New(1 << 14)
				machA := buildCkptMachine(t, c, mode, trA, CheckpointSpec{Every: every, Dir: dir})
				metA, err := execMeasuredChecked(context.Background(), machA, warmup, window)
				if err != nil {
					t.Fatal(err)
				}
				resA := ckptCollect(machA, metA, trA)

				// The checkpointing run must match the plain run on
				// every simulated quantity; the periodic stops only
				// shift the event kernel's executed/skipped split
				// (each Run-call boundary forces one executed cycle).
				wantNorm, resANorm := want, resA
				wantNorm.met = normalizeKernelStats(wantNorm.met)
				resANorm.met = normalizeKernelStats(resANorm.met)
				compareCkptResults(t, "checkpointing run vs plain run", wantNorm, resANorm)

				paths := listCheckpoints(t, dir)
				if wantFiles := (warmup + window) / every; len(paths) != wantFiles {
					t.Fatalf("wrote %d periodic checkpoints, want %d", len(paths), wantFiles)
				}
				if machA.LastCheckpoint() != paths[len(paths)-1] {
					t.Errorf("LastCheckpoint %q, want %q", machA.LastCheckpoint(), paths[len(paths)-1])
				}

				// Restore from a pre-warmup, an early, a mid-window, and
				// the final snapshot. Each resumed run keeps the same
				// checkpoint schedule, so it must reproduce the
				// interrupted run exactly — kernel accounting included —
				// and re-write byte-identical snapshots for every
				// checkpoint cycle after its own.
				picks := []int{0, 1, len(paths) / 2, len(paths) - 1}
				for _, i := range picks {
					dirB := t.TempDir()
					got, ck := restoreAndFinish(t, c, mode, paths[i], warmup, window, CheckpointSpec{Every: every, Dir: dirB})
					wantHere := resA
					wantHere.events = eventsFrom(resA.events, ck.PNow)
					compareCkptResults(t, filepath.Base(paths[i]), wantHere, got)
					for _, rewritten := range listCheckpoints(t, dirB) {
						orig := filepath.Join(dir, filepath.Base(rewritten))
						a, err := os.ReadFile(orig)
						if err != nil {
							t.Fatalf("resumed run wrote %s, which the original never did", filepath.Base(rewritten))
						}
						b, err := os.ReadFile(rewritten)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a, b) {
							t.Errorf("resumed run's %s differs from the original run's", filepath.Base(rewritten))
						}
					}
				}

				// State-level round trip: restoring the mid snapshot and
				// immediately re-snapshotting must reproduce the file
				// byte for byte (canonical encoding makes this exact).
				mid := paths[len(paths)/2]
				ck, err := checkpoint.ReadFile(mid)
				if err != nil {
					t.Fatal(err)
				}
				tor, m := parityTopoMapping(c)
				cfg := DefaultConfig(tor, m, c.contexts)
				cfg.Kernel = mode
				cfg.LocalDelay = c.localDelay
				cfg.Watchdog = c.watchdog
				mach, err := RestoreFrom(cfg, ck)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := checkpoint.Write(&buf, mach.BuildCheckpoint(ck.ChunkDone)); err != nil {
					t.Fatal(err)
				}
				disk, err := os.ReadFile(mid)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), disk) {
					t.Errorf("restore followed by re-snapshot is not byte-identical to %s", filepath.Base(mid))
				}
			})
		}
	}
}

// TestCheckpointAtWarmupBoundary pins the nastiest restore cycle: a
// snapshot taken at exactly the warmup boundary, written inside the
// warmup RunChecked call before ResetStats ran. ResumeMeasuredChecked
// must redo the reset so the measurement window still starts at
// warmup.
func TestCheckpointAtWarmupBoundary(t *testing.T) {
	const warmup, window = 500, 2000
	c := parityCell{name: "identity/p2/faults", mapName: "identity", contexts: 2, watchdog: guardWatchdog}
	for _, kc := range ckptKernels {
		mode, c := kc.mode, c
		t.Run(kc.label, func(t *testing.T) {
			dir := t.TempDir()
			trRef := trace.New(1 << 14)
			ref := buildParityMachine(t, c, mode, trRef)
			metRef, err := execMeasuredChecked(context.Background(), ref, warmup, window)
			if err != nil {
				t.Fatal(err)
			}
			want := ckptCollect(ref, metRef, trRef)

			trA := trace.New(1 << 14)
			machA := buildCkptMachine(t, c, mode, trA, CheckpointSpec{Every: warmup, Dir: dir})
			if _, err := execMeasuredChecked(context.Background(), machA, warmup, window); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.lckp", warmup))
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no snapshot at the warmup boundary: %v", err)
			}
			got, ck := restoreAndFinish(t, c, mode, path, warmup, window, CheckpointSpec{})
			if ck.PNow != warmup {
				t.Fatalf("snapshot taken at cycle %d, want %d", ck.PNow, warmup)
			}
			want.events = eventsFrom(want.events, warmup)
			compareCkptResults(t, "warmup-boundary restore", want, got)
		})
	}
}

// TestCheckpointOnCancel: canceling a checked run with a directory
// configured leaves a final snapshot behind, and resuming from it
// finishes the run byte-identically.
func TestCheckpointOnCancel(t *testing.T) {
	const warmup, window = 500, 2000
	c := parityCell{name: "identity/p2", mapName: "identity", contexts: 2}

	trRef := trace.New(1 << 14)
	ref := buildParityMachine(t, c, sim.KernelEvent, trRef)
	metRef, err := execMeasuredChecked(context.Background(), ref, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	want := ckptCollect(ref, metRef, trRef)

	dir := t.TempDir()
	tr := trace.New(1 << 14)
	mach := buildCkptMachine(t, c, sim.KernelEvent, tr, CheckpointSpec{Dir: dir})
	if _, err := mach.Execute(context.Background(), RunSpec{Cycles: warmup}); err != nil {
		t.Fatal(err)
	}
	mach.ResetStats()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mach.Execute(canceled, RunSpec{Cycles: window}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	path := mach.LastCheckpoint()
	if path == "" {
		t.Fatal("canceled run left no snapshot")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("snapshot %s outside configured directory %s", path, dir)
	}

	got, ck := restoreAndFinish(t, c, sim.KernelEvent, path, warmup, window, CheckpointSpec{})
	want.events = eventsFrom(want.events, ck.PNow)
	compareCkptResults(t, "cancel restore", want, got)
}

// TestCheckpointOnStall: when the watchdog fires with a checkpoint
// directory configured, the stall report names an emergency snapshot
// holding the stalled machine's state.
func TestCheckpointOnStall(t *testing.T) {
	dir := t.TempDir()
	mach := stallingMachine(t, sim.KernelEvent, func(c *Config) {
		c.Checkpoint = CheckpointSpec{Dir: dir}
	})
	_, err := mach.Execute(context.Background(), RunSpec{Cycles: 200000})
	var rep *StallReport
	if !errors.As(err, &rep) {
		t.Fatalf("expected a StallReport, got %v", err)
	}
	if rep.Checkpoint == "" {
		t.Fatal("stall report names no emergency snapshot")
	}
	if !strings.HasPrefix(filepath.Base(rep.Checkpoint), "stall-") {
		t.Errorf("emergency snapshot %q not named stall-<cycle>.lckp", rep.Checkpoint)
	}
	ck, err := checkpoint.ReadFile(rep.Checkpoint)
	if err != nil {
		t.Fatalf("emergency snapshot unreadable: %v", err)
	}
	if ck.PNow != rep.Cycle {
		t.Errorf("snapshot taken at cycle %d, stall reported at %d", ck.PNow, rep.Cycle)
	}
	if mach.LastCheckpoint() != rep.Checkpoint {
		t.Errorf("LastCheckpoint %q, want %q", mach.LastCheckpoint(), rep.Checkpoint)
	}
}

// TestCheckpointKeepPrunes: Keep bounds the periodic snapshot
// population; the retained files are the most recent ones.
func TestCheckpointKeepPrunes(t *testing.T) {
	dir := t.TempDir()
	c := parityCell{name: "identity/p1", mapName: "identity", contexts: 1}
	mach := buildCkptMachine(t, c, sim.KernelEvent, nil, CheckpointSpec{Every: 250, Dir: dir, Keep: 3})
	if _, err := mach.Execute(context.Background(), RunSpec{Cycles: 2000}); err != nil {
		t.Fatal(err)
	}
	paths := listCheckpoints(t, dir)
	if len(paths) != 3 {
		t.Fatalf("kept %d snapshots, want 3: %v", len(paths), paths)
	}
	for i, wantCycle := range []string{"ckpt-1500.lckp", "ckpt-1750.lckp", "ckpt-2000.lckp"} {
		if got := filepath.Base(paths[i]); got != wantCycle {
			t.Errorf("retained snapshot %d is %s, want %s", i, got, wantCycle)
		}
	}
}

// TestRestoreRejectsMismatchedConfig: a checkpoint only restores into
// the machine it came from.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	c := parityCell{name: "identity/p2", mapName: "identity", contexts: 2}
	mach := buildCkptMachine(t, c, sim.KernelEvent, nil, CheckpointSpec{Every: 250, Dir: dir})
	if _, err := mach.Execute(context.Background(), RunSpec{Cycles: 500}); err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.ReadFile(mach.LastCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	tor := topology.MustNew(4, 2)

	wrong := DefaultConfig(tor, mapping.Identity(tor), 1) // contexts differ
	if _, err := RestoreFrom(wrong, ck); err == nil {
		t.Error("restore accepted a machine with a different context count")
	}

	wrongMap := DefaultConfig(tor, mapping.Random(tor, 1), 2) // mapping differs
	if _, err := RestoreFrom(wrongMap, ck); err == nil {
		t.Error("restore accepted a machine with a different mapping")
	}

	capturing := DefaultConfig(tor, mapping.Identity(tor), 2)
	capturing.Capture = replay.NewCapture()
	if _, err := RestoreFrom(capturing, ck); err == nil {
		t.Error("restore accepted a capturing machine")
	}

	right := DefaultConfig(tor, mapping.Identity(tor), 2)
	badSeq := *ck
	badSeq.Proto.Seq = 0
	if _, err := RestoreFrom(right, &badSeq); err == nil {
		t.Error("restore accepted pending events numbered past the protocol sequence")
	}

	if _, err := RestoreFrom(right, ck); err != nil {
		t.Errorf("restore rejected the matching configuration: %v", err)
	}
}

// TestRestoreRejectsUndrainableFabric: a snapshot whose fabric no run
// can reach is refused, not resumed into a stall. Clearing every
// output's owner leaves body flits fronting inputs that feed nothing,
// which the fabric would never move.
func TestRestoreRejectsUndrainableFabric(t *testing.T) {
	dir := t.TempDir()
	c := parityCell{name: "random/p2", mapName: "random", contexts: 2}
	mach := buildCkptMachine(t, c, sim.KernelEvent, nil, CheckpointSpec{Every: 250, Dir: dir})
	if _, err := mach.Execute(context.Background(), RunSpec{Cycles: 500}); err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.ReadFile(mach.LastCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, rs := range ck.Net.Routers {
		for key, owner := range rs.Owner {
			if owner != -1 && len(rs.Inputs[rs.OwnerInput[key]]) > 0 {
				held++
			}
			rs.Owner[key], rs.OwnerInput[key] = -1, 0
		}
	}
	if held == 0 {
		t.Fatal("snapshot holds no worm with buffered body flits")
	}
	tor, m := parityTopoMapping(c)
	if _, err := RestoreFrom(DefaultConfig(tor, m, c.contexts), ck); err == nil {
		t.Fatal("restore accepted a fabric with body flits fronting inputs that feed nothing")
	} else {
		t.Log(err)
	}
}

// TestHeldSnapshotOutlivesItsSource holds an in-memory BuildCheckpoint
// snapshot while its source machine runs on. By the end the source has
// delivered every fabric message the snapshot names, recycling their
// packets for later sends, and has moved every transaction it names
// on; restoring the held snapshot must still reproduce the source's
// run exactly.
func TestHeldSnapshotOutlivesItsSource(t *testing.T) {
	const snapAt, warmup, window = 300, 500, 2000
	cells := []parityCell{
		{name: "random/p4", mapName: "random", contexts: 4},
		{name: "random/p2/faults", mapName: "random", contexts: 2, watchdog: guardWatchdog, localDelay: 9},
	}
	ctx := context.Background()
	spec := RunSpec{Warmup: warmup, Window: window}
	for _, kc := range ckptKernels {
		for _, c := range cells {
			t.Run(kc.label+"/"+c.name, func(t *testing.T) {
				trSrc := trace.New(1 << 14)
				src := buildParityMachine(t, c, kc.mode, trSrc)
				if _, err := src.Execute(ctx, RunSpec{Cycles: snapAt}); err != nil {
					t.Fatal(err)
				}
				ck := src.BuildCheckpoint(0)
				if len(ck.Net.Messages) == 0 {
					t.Fatal("no fabric message in flight at the snapshot")
				}
				res, err := src.Execute(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, ms := range src.Network().Checkpoint().Messages {
					if ms.EnqueuedAt < ck.Net.Now {
						t.Fatalf("a message sent at N-cycle %d, before the snapshot, is still in flight", ms.EnqueuedAt)
					}
				}
				want := ckptCollect(src, res.Metrics, trSrc)
				want.events = eventsFrom(want.events, ck.PNow)

				cfg := src.cfg
				trRes := trace.New(1 << 14)
				cfg.Trace = trRes
				restored, err := RestoreFrom(cfg, ck)
				if err != nil {
					t.Fatal(err)
				}
				res, err = restored.Execute(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				compareCkptResults(t, "held snapshot", want, ckptCollect(restored, res.Metrics, trRes))
			})
		}
	}
}
