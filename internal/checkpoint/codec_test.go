package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"locality/internal/cachesim"
	"locality/internal/cohsim"
	"locality/internal/netsim"
	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/stats"
)

// testCheckpoint builds a small synthetic checkpoint exercising every
// wire-format feature: shared transactions (one referenced from a
// directory entry, an MSHR slot, and the event heap; one riding only in
// protocol structures and a network payload), buffered flits, local
// deliveries, and window bookkeeping. Its second event is of kind 4,
// an owner fetch, so a codec that renumbered the action kinds would
// fail the golden fixture.
func testCheckpoint() *Checkpoint {
	t1 := cohsim.NewTransactionFromState(cohsim.TxnState{
		ID: 1, Node: 0, Addr: 0x40, Started: 950, Waiters: []int{1},
	})
	t2 := cohsim.NewTransactionFromState(cohsim.TxnState{
		ID: 2, Node: 2, Addr: 0x80, Write: true, Started: 970,
		NetMessages: 2, PendingWrite: true,
	})

	// Node 3 carries no state at all: it must vanish from the wire and
	// decode back to its zero value. Node 1 has counters but no lines —
	// non-zero, with an empty sparse cache section.
	nodes := make([]cohsim.NodeState, 4)
	nodes[0].Cache = cachesim.CheckpointState{
		Lines: []cachesim.LineState{{Index: 4, Tag: 0x40, State: cachesim.Shared}},
		Hits:  51, Misses: 9, Evictions: 3,
	}
	nodes[1].Cache = cachesim.CheckpointState{Hits: 12, Misses: 2}
	nodes[2].Cache = cachesim.CheckpointState{
		Lines: []cachesim.LineState{{Index: 8, Tag: 0x80, State: cachesim.Modified}},
		Hits:  40, Misses: 7, Evictions: 1,
	}
	nodes[0].Dir = []cohsim.DirEntryState{{
		Addr: 0x40, State: 1, Sharers: []int{1, 3}, Owner: -1, Busy: 1,
		PendingInv: []int{3}, Requester: 0, Txn: t1,
		Queue: []cohsim.QueuedReqState{{Kind: 1, From: 2, Txn: t2}},
	}}
	nodes[0].MSHR = []cohsim.MSHRState{{Addr: 0x40, Txn: t1}}
	nodes[2].MSHR = []cohsim.MSHRState{{Addr: 0x80, Txn: t2}}

	net := netsim.CheckpointState{
		Messages: []netsim.MessageState{{
			Src: 2, Dst: 0, Size: 3,
			Payload:    cohsim.Msg{Kind: 1, Addr: 0x80, From: 2, Txn: t2},
			EnqueuedAt: 1990, InjectedAt: 1992, Hops: 1, Remaining: 2, VCClass: 1,
		}},
		Local: []netsim.LocalState{{Msg: 0, Due: 2007}},
		Now:   2002, LastProgress: 2001, FlitsIn: 280, FlitsOut: 277,
		StatsSince: 1000, Injected: 93, Delivered: 91, FlitHops: 240,
		Latency:    stats.MeanState{N: 91, Mean: 14.25, M2: 33, Min: 4, Max: 40},
		NetLatency: stats.MeanState{N: 91, Mean: 9.5, M2: 20, Min: 2, Max: 31},
		Hops:       stats.MeanState{N: 93, Mean: 1.5, M2: 8, Min: 0, Max: 3},
		Sizes:      stats.MeanState{N: 93, Mean: 2.25, M2: 12, Min: 1, Max: 6},
	}
	// The router section is sparse: only router 0 carries state (a
	// buffered flit and a held output); routers 1–3 are omitted.
	const nin = 5
	r0 := netsim.RouterState{
		Index:       0,
		Inputs:      make([][]netsim.FlitState, nin),
		Owner:       make([]int, nin),
		OwnerInput:  make([]int, nin),
		LastGranted: make([]int, nin),
		LastVC:      make([]int, 2),
	}
	for i := range r0.Owner {
		r0.Owner[i] = -1
	}
	r0.Inputs[4] = []netsim.FlitState{{Msg: 0, Seq: 1, ArrivedAt: 2001}}
	r0.Owner[1] = 0
	r0.OwnerInput[1] = 4
	net.Routers = []netsim.RouterState{r0}
	net.InjectQ = []netsim.InjectQState{{Node: 2, Msgs: []int{0}}}

	procs := make([]procsim.CheckpointState, 4)
	for i := range procs {
		procs[i] = procsim.CheckpointState{
			Ctxs: []procsim.ContextState{
				{
					HasLook: true, Look: procsim.Op{Kind: procsim.OpRead, Addr: 0x40},
					Remaining: 3, Fetched: 12,
				},
				{
					State:      2, // blocked
					HasPending: true, Pending: procsim.Op{Kind: procsim.OpWrite, Addr: 0x80},
					WBPending: []uint64{0x80}, Fetched: 9,
				},
			},
			Cur: 0, SwitchLeft: 0, LastTick: 999,
			Busy: 700, Switching: 120, Idle: 180,
			Accesses: 60, Misses: 9, Prefetches: 2, WriteBehinds: 1,
		}
	}

	return &Checkpoint{
		FP: Fingerprint{
			Radix: 2, Dims: 2, Contexts: 2,
			MappingName: "identity", Place: []int{0, 1, 2, 3},
			ClockRatio: 2, BufferDepth: 8,
			CacheLines: 16, LineSize: 16,
			ReadCompute: 20, WriteCompute: 20,
		},
		PNow: 1000, WindowStart: 500,
		KSWindow:  sim.Stats{Ticked: 420, Skipped: 80},
		ChunkDone: 72,
		Kernel: sim.KernelState{
			Now: 1000, Stats: sim.Stats{Ticked: 900, Skipped: 100}, Pending: -1,
		},
		Procs: procs,
		Proto: cohsim.CheckpointState{
			Nodes: nodes,
			Events: []cohsim.EventState{
				{Due: 1003, Seq: 40, Act: cohsim.ActionState{
					Kind: 1, Node: 0, Peer: 2, MsgKind: 3, Addr: 0x40,
					Txn: t1, Size: 2,
				}},
				{Due: 1010, Seq: 41, Act: cohsim.ActionState{
					Kind: 4, Node: 2, Peer: 0, MsgKind: 7, Addr: 0x80, Txn: t2,
				}},
			},
			Seq: 42, TxnSeq: 2, Now: 1000,
			NextSend:     []int64{1001, 0, 998, 0},
			Transactions: 37,
			TxnLatency:   stats.MeanState{N: 37, Mean: 120.5, M2: 88.25, Min: 60, Max: 300},
			TxnMsgs:      stats.MeanState{N: 37, Mean: 2.5, M2: 1.25, Min: 2, Max: 5},
			NetMessages:  93,
			KindCounts:   []int64{10, 8, 0, 9, 1, 0, 2, 0, 1, 0},
			SWTraps:      1, ReadMisses: 20, WriteMisses: 17,
		},
		Net: net,
	}
}

// attributedCheckpoint extends testCheckpoint with the section it
// leaves out: the kernel's attribution array, one charge per component
// (protocol, four processors, network).
func attributedCheckpoint() *Checkpoint {
	c := testCheckpoint()
	c.Kernel.Attr = []int64{400, 120, 0, 95, 3, 0}
	c.Kernel.AttrNone = 282
	return c
}

// hostileCheckpoint is a 34-byte file declaring a 1024×1024 machine
// with an empty placement, followed by zero clocks and empty tables.
func hostileCheckpoint() []byte {
	b := append([]byte(Magic), Version)
	b = append(b, 0x80, 0x08, 2, 1, 0, 0) // radix 1024, dims 2, contexts 1, no name, no placement
	b = append(b, make([]byte, 8+1+1)...) // machine and workload fields, workload identity, kernel
	b = append(b, 0, 0, 0, 0, 0)          // clocks and window accounting
	b = append(b, 0, 0, 0, 1, 0)          // kernel: now, ticked, skipped, pending -1, no attribution
	return append(b, 0, 0, 0)             // no transactions, processors or protocol nodes
}

func encode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, want := range []*Checkpoint{testCheckpoint(), attributedCheckpoint()} {
		data := encode(t, want)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("decoded checkpoint differs from original")
		}
		if !bytes.Equal(encode(t, got), data) {
			t.Error("re-encoding the decoded checkpoint changed its bytes")
		}

		// Pointer sharing must be rebuilt, not just value equality: the
		// directory entry, its MSHR slot, and the event heap all named the
		// same transaction, as did the queued request and the in-flight
		// message payload.
		t1 := got.Proto.Nodes[0].Dir[0].Txn
		if got.Proto.Nodes[0].MSHR[0].Txn != t1 || got.Proto.Events[0].Act.Txn != t1 {
			t.Error("transaction 1 no longer shared between directory, MSHR, and events")
		}
		t2 := got.Proto.Nodes[0].Dir[0].Queue[0].Txn
		if got.Proto.Nodes[2].MSHR[0].Txn != t2 || got.Proto.Events[1].Act.Txn != t2 {
			t.Error("transaction 2 no longer shared between queue, MSHR, and events")
		}
		if got.Net.Messages[0].Payload.(cohsim.Msg).Txn != t2 {
			t.Error("in-flight payload lost its transaction identity")
		}
	}
}

// TestGoldenFixture pins the wire format: the committed fixture must
// decode to the reference checkpoint and re-encode byte-identically,
// so any format change that breaks old checkpoints fails here.
// Regenerate with
// CHECKPOINT_REGEN_GOLDEN=1 go test ./internal/checkpoint -run Golden
// only alongside a version bump.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden.lckp")
	want := testCheckpoint()
	if os.Getenv("CHECKPOINT_REGEN_GOLDEN") == "1" {
		if err := WriteFile(path, want); err != nil {
			t.Fatalf("regenerating fixture: %v", err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("golden fixture no longer decodes to the reference checkpoint")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), data) {
		t.Error("re-encoding the golden fixture changed its bytes")
	}
}

func TestReadRejects(t *testing.T) {
	valid := encode(t, testCheckpoint())
	// The reference checkpoint as the version 2 build wrote it.
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-v2.lckp"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 2", v2, "unsupported version 2 (want 3)"},
		{"empty", nil, "magic"},
		{"bad magic", []byte("NOPE"), "magic"},
		{"bad version", append([]byte(Magic), 99), "version"},
		{"truncated", valid[:len(valid)/2], ""},
		{"trailing byte", append(append([]byte{}, valid...), 0), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*Checkpoint)) *Checkpoint {
		c := testCheckpoint()
		f(c)
		return c
	}
	cases := []struct {
		name string
		c    *Checkpoint
	}{
		{"kernel clock mismatch", mutate(func(c *Checkpoint) { c.Kernel.Now++ })},
		{"window after now", mutate(func(c *Checkpoint) { c.WindowStart = c.PNow + 1 })},
		{"missing processor", mutate(func(c *Checkpoint) { c.Procs = c.Procs[:3] })},
		{"wrong contexts", mutate(func(c *Checkpoint) { c.Procs[1].Ctxs = c.Procs[1].Ctxs[:1] })},
		{"bad placement", mutate(func(c *Checkpoint) { c.FP.Place[0] = 1 })},
		{"unknown kernel", mutate(func(c *Checkpoint) { c.FP.Kernel = 2 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); err == nil {
				t.Error("invalid checkpoint passed Validate")
			}
			var buf bytes.Buffer
			if err := Write(&buf, tc.c); err == nil {
				t.Error("invalid checkpoint encoded without error")
			}
		})
	}
}

// TestWriteRejectsWhatReadRejects checks that every range and ordering
// check of the decoder also holds on write: each checkpoint below
// passes neither, so Write cannot produce a file Read would reject.
func TestWriteRejectsWhatReadRejects(t *testing.T) {
	mutate := func(f func(*Checkpoint)) *Checkpoint {
		c := testCheckpoint()
		f(c)
		return c
	}
	cases := []struct {
		name string
		c    *Checkpoint
	}{
		{"directory owner", mutate(func(c *Checkpoint) { c.Proto.Nodes[0].Dir[0].Owner = 99 })},
		{"directory requester", mutate(func(c *Checkpoint) { c.Proto.Nodes[0].Dir[0].Requester = -5 })},
		{"sharer", mutate(func(c *Checkpoint) { c.Proto.Nodes[0].Dir[0].Sharers[0] = 7 })},
		{"event order", mutate(func(c *Checkpoint) {
			c.Proto.Events[0], c.Proto.Events[1] = c.Proto.Events[1], c.Proto.Events[0]
		})},
		{"event sequence past protocol sequence", mutate(func(c *Checkpoint) { c.Proto.Seq = 0 })},
		{"action node", mutate(func(c *Checkpoint) { c.Proto.Events[0].Act.Node = 4 })},
		{"virtual channel class", mutate(func(c *Checkpoint) { c.Net.Messages[0].VCClass = 2 })},
		{"pending op kind", mutate(func(c *Checkpoint) { c.Procs[0].Ctxs[1].Pending.Kind = 200 })},
		{"kernel pending charge", mutate(func(c *Checkpoint) { c.Kernel.Pending = 1000 })},
		{"cache frame order", mutate(func(c *Checkpoint) {
			cache := &c.Proto.Nodes[0].Cache
			cache.Lines = append(cache.Lines, cachesim.LineState{Index: 2, Tag: 0x20, State: cachesim.Shared})
		})},
		{"duplicate MSHR", mutate(func(c *Checkpoint) {
			n := &c.Proto.Nodes[0]
			n.MSHR = append(n.MSHR, n.MSHR[0])
		})},
		{"VC rotor", mutate(func(c *Checkpoint) { c.Net.Routers[0].LastVC[0] = 2 })},
		{"output owner", mutate(func(c *Checkpoint) { c.Net.Routers[0].Owner[1] = 5 })},
		{"payload kind", mutate(func(c *Checkpoint) {
			msg := c.Net.Messages[0].Payload.(cohsim.Msg)
			msg.Kind = 200
			c.Net.Messages[0].Payload = msg
		})},
		{"action peer", mutate(func(c *Checkpoint) { c.Proto.Events[0].Act.Peer = -1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, tc.c); err == nil {
				t.Error("Write encoded a checkpoint Read rejects")
			}
		})
	}
}

// TestReadAllocatesWithInput checks that a file declaring a huge
// machine fails before Read allocates its per-node state.
func TestReadAllocatesWithInput(t *testing.T) {
	data := hostileCheckpoint()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile checkpoint accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Read allocated %d bytes on a %d-byte input before failing with %v", n, len(data), err)
	}
}

// TestFingerprintDigest pins the digest that names machines in the run
// ledger: it hashes the fingerprint's wire bytes, so a layout change
// would silently rename every recorded machine.
func TestFingerprintDigest(t *testing.T) {
	fp := testCheckpoint().FP
	if got, want := fp.Digest(), "035f232d95e2763932e6bfe0"; got != want {
		t.Errorf("Digest() = %s, want %s", got, want)
	}
}

// TestFingerprintEqual perturbs every field of the fingerprint in turn,
// found by reflection so a new field cannot be missed, and checks that
// Equal and Digest both tell the result from the original. A
// perturbation that changes the node count also resizes the placement,
// so every perturbed fingerprint stays valid and its digest covers the
// whole encoding.
func TestFingerprintEqual(t *testing.T) {
	base := testCheckpoint().FP
	same := testCheckpoint().FP
	if !base.Equal(&same) || base.Digest() != same.Digest() {
		t.Fatal("identical fingerprints compare unequal")
	}
	digests := map[string]string{base.Digest(): "the original"}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fp := testCheckpoint().FP
		switch v := reflect.ValueOf(&fp).Elem().Field(i); v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			fp.Place = append([]int(nil), fp.Place...)
			fp.Place[0], fp.Place[1] = fp.Place[1], fp.Place[0]
		default:
			t.Fatalf("field %s: no perturbation for kind %s", name, v.Kind())
		}
		if nodes, err := fp.Nodes(); err == nil && nodes != len(fp.Place) {
			fp.Place = make([]int, nodes)
			for j := range fp.Place {
				fp.Place[j] = j
			}
		}
		if _, err := fp.validate(); err != nil {
			t.Fatalf("field %s: perturbed fingerprint invalid: %v", name, err)
		}
		if base.Equal(&fp) || fp.Equal(&base) {
			t.Errorf("field %s: perturbed fingerprint compares equal", name)
		}
		d := fp.Digest()
		if prev, ok := digests[d]; ok {
			t.Errorf("field %s: perturbed digest %s equals that of %s", name, d, prev)
		}
		digests[d] = "field " + name
	}
}
