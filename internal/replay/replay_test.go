package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"locality/internal/procsim"
)

// testTrace builds a small, fully featured trace: 2×2 torus, two
// contexts, every record kind, and a home table.
func testTrace() *Trace {
	hdr := Header{
		Radix: 2, Dims: 2, Contexts: 2, LineSize: 16,
		Warmup: 100, Window: 400,
		MappingName: "identity",
		Place:       []int{0, 1, 2, 3},
	}
	t := &Trace{Header: hdr, Threads: make([][]Rec, hdr.Threads())}
	for i := range t.Threads {
		t.Threads[i] = []Rec{
			{Kind: procsim.OpCompute, Arg: uint64(10 + i)},
			{Kind: procsim.OpRead, Arg: uint64(i%4) * 16},
			{Kind: procsim.OpPrefetch, Arg: uint64((i + 1) % 4 * 16)},
			{Kind: procsim.OpWriteBehind, Arg: uint64(i%4) * 16},
			{Kind: procsim.OpFence},
			{Kind: procsim.OpWrite, Arg: uint64(i%4) * 16},
			{Kind: procsim.OpHalt},
		}
	}
	t.Home = []HomeEntry{{Addr: 0, Thread: 0}, {Addr: 16, Thread: 1}, {Addr: 32, Thread: 2}, {Addr: 48, Thread: 3}}
	return t
}

// hostileTrace is a 15-byte file whose header declares an 8×8 machine
// and a placement of 2²⁰ entries, and then ends.
func hostileTrace() []byte {
	b := []byte(Magic + "\x01")
	b = append(b, 8, 2, 1, 16, 0, 0, 0) // radix, dims, contexts, line size, warmup, window, no name
	return append(b, 0x80, 0x80, 0x40)  // placement length 2²⁰
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := testTrace()
	data := encode(t, want)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Errorf("header mismatch:\n got  %+v\n want %+v", got.Header, want.Header)
	}
	if !reflect.DeepEqual(got.Threads, want.Threads) {
		t.Errorf("streams mismatch")
	}
	if !reflect.DeepEqual(got.Home, want.Home) {
		t.Errorf("home table mismatch: got %v want %v", got.Home, want.Home)
	}
	// Canonical encoding: re-encoding the decoded trace is byte-identical.
	if again := encode(t, got); !bytes.Equal(again, data) {
		t.Error("re-encoding a decoded trace changed the bytes")
	}
}

func TestReadFileWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lref")
	want := testTrace()
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("file round-trip mismatch")
	}
}

func TestStreamAndCounts(t *testing.T) {
	tr := testTrace()
	if got := tr.Records(); got != int64(len(tr.Threads)*7) {
		t.Errorf("Records() = %d, want %d", got, len(tr.Threads)*7)
	}
	if got := tr.Stream(1, 1); !reflect.DeepEqual(got, tr.Threads[1*2+1]) {
		t.Error("Stream(1,1) returned the wrong stream")
	}
	hm := tr.HomeMap()
	if hm[16] != 1 || hm[48] != 3 {
		t.Errorf("HomeMap wrong: %v", hm)
	}
}

// TestRecOpConversions checks Rec↔Op both ways for every kind.
func TestRecOpConversions(t *testing.T) {
	ops := []procsim.Op{
		{Kind: procsim.OpCompute, Cycles: 20},
		{Kind: procsim.OpCompute, Cycles: -3}, // clamped to 0
		{Kind: procsim.OpRead, Addr: 0x40},
		{Kind: procsim.OpWrite, Addr: 0x50},
		{Kind: procsim.OpPrefetch, Addr: 0x60},
		{Kind: procsim.OpWriteBehind, Addr: 0x70},
		{Kind: procsim.OpFence},
		{Kind: procsim.OpHalt},
	}
	for _, op := range ops {
		back := RecOf(op).Op()
		want := op
		if want.Cycles < 0 {
			want.Cycles = 0
		}
		if back != want {
			t.Errorf("RecOf(%+v).Op() = %+v, want %+v", op, back, want)
		}
	}
}

func TestReadRejectsCorruptInputs(t *testing.T) {
	valid := encode(t, testTrace())
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XREF"), valid[4:]...),
		"bad version":     append(append([]byte(Magic), 99), valid[5:]...),
		"truncated":       valid[:len(valid)/2],
		"trailing":        append(append([]byte{}, valid...), 0),
		"truncated magic": valid[:2],
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
}

// TestReadAllocatesWithInput checks that a declared placement longer
// than the machine fails before Read allocates for it.
func TestReadAllocatesWithInput(t *testing.T) {
	data := hostileTrace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile trace accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Read allocated %d bytes on a %d-byte input before failing with %v", n, len(data), err)
	}
}

func TestHeaderValidate(t *testing.T) {
	base := testTrace().Header
	mut := func(f func(*Header)) Header { h := base; h.Place = append([]int(nil), base.Place...); f(&h); return h }
	bad := map[string]Header{
		"radix":        mut(func(h *Header) { h.Radix = 1 }),
		"dims":         mut(func(h *Header) { h.Dims = 0 }),
		"contexts":     mut(func(h *Header) { h.Contexts = 0 }),
		"line size":    mut(func(h *Header) { h.LineSize = 0 }),
		"warmup":       mut(func(h *Header) { h.Warmup = -1 }),
		"place len":    mut(func(h *Header) { h.Place = h.Place[:3] }),
		"place range":  mut(func(h *Header) { h.Place[0] = 9 }),
		"place repeat": mut(func(h *Header) { h.Place[0] = h.Place[1] }),
		"huge nodes":   mut(func(h *Header) { h.Radix, h.Dims = 1024, 8 }),
	}
	for name, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, h)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid header rejected: %v", err)
	}
}

func TestTraceValidate(t *testing.T) {
	good := testTrace()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	unsorted := testTrace()
	unsorted.Home[0], unsorted.Home[1] = unsorted.Home[1], unsorted.Home[0]
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted home table accepted")
	}
	badOwner := testTrace()
	badOwner.Home[0].Thread = 99
	if err := badOwner.Validate(); err == nil {
		t.Error("out-of-range home owner accepted")
	}
	shortStreams := testTrace()
	shortStreams.Threads = shortStreams.Threads[:3]
	if err := shortStreams.Validate(); err == nil {
		t.Error("wrong stream count accepted")
	}
	badKind := testTrace()
	badKind.Threads[0] = []Rec{{Kind: procsim.OpKind(42)}}
	if err := badKind.Validate(); err == nil {
		t.Error("unknown record kind accepted")
	}
}

func TestCapture(t *testing.T) {
	c := NewCapture()
	c.Bind(4, 1)
	// Node n runs thread place⁻¹… use a transposed placement so the
	// node→thread permutation is exercised: thread t on node (t+1)%4.
	place := []int{1, 2, 3, 0}
	for node := 0; node < 4; node++ {
		c.Record(node, 0, procsim.Op{Kind: procsim.OpCompute, Cycles: 10 * node})
		c.Record(node, 0, procsim.Op{Kind: procsim.OpRead, Addr: uint64(node) * 16})
	}
	if c.Records() != 8 {
		t.Fatalf("Records() = %d, want 8", c.Records())
	}
	hdr := Header{Radix: 2, Dims: 2, Contexts: 1, LineSize: 16, MappingName: "rot", Place: place}
	// Line addr node·16 is owned by the thread on that node.
	threadOn := []int{3, 0, 1, 2} // inverse of place
	tr, err := c.Finish(hdr, func(addr uint64) int { return threadOn[addr/16] })
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Thread t's stream came from node place[t].
	for thread := 0; thread < 4; thread++ {
		node := place[thread]
		want := []Rec{
			{Kind: procsim.OpCompute, Arg: uint64(10 * node)},
			{Kind: procsim.OpRead, Arg: uint64(node) * 16},
		}
		if !reflect.DeepEqual(tr.Stream(thread, 0), want) {
			t.Errorf("thread %d stream = %v, want %v", thread, tr.Stream(thread, 0), want)
		}
	}
	hm := tr.HomeMap()
	for node := 0; node < 4; node++ {
		if hm[uint64(node)*16] != threadOn[node] {
			t.Errorf("home of %#x = thread %d, want %d", node*16, hm[uint64(node)*16], threadOn[node])
		}
	}
	// Round-trip the captured trace through the codec.
	data := encode(t, tr)
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("captured trace does not decode: %v", err)
	}
}

func TestCaptureMisuse(t *testing.T) {
	c := NewCapture()
	if _, err := c.Finish(testTrace().Header, func(uint64) int { return 0 }); err == nil {
		t.Error("Finish on unbound capture succeeded")
	}
	c.Bind(4, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Bind did not panic")
			}
		}()
		c.Bind(4, 2)
	}()
	if _, err := c.Finish(Header{}, func(uint64) int { return 0 }); err == nil {
		t.Error("Finish with invalid header succeeded")
	}
	hdr := testTrace().Header
	if _, err := c.Finish(hdr, nil); err == nil {
		t.Error("Finish with nil ownerThread succeeded")
	}
	c.Record(0, 0, procsim.Op{Kind: procsim.OpRead, Addr: 64})
	if _, err := c.Finish(hdr, func(uint64) int { return -1 }); err == nil || !strings.Contains(err.Error(), "ownerThread") {
		t.Errorf("out-of-range ownerThread not rejected: %v", err)
	}
}

// TestGoldenFixture pins the wire format: the committed fixture must
// decode to the expected trace and re-encode byte-identically, so any
// format change that breaks old traces fails here. Regenerate with
// REPLAY_REGEN_GOLDEN=1 go test ./internal/replay -run Golden
// only alongside a version bump.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden.lref")
	want := testTrace()
	if os.Getenv("REPLAY_REGEN_GOLDEN") == "1" {
		if err := WriteFile(path, want); err != nil {
			t.Fatalf("regenerating fixture: %v", err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("golden fixture no longer decodes to the reference trace")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), data) {
		t.Error("re-encoding the golden fixture changed its bytes")
	}
}
