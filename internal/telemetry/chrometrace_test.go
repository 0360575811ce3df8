package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"locality/internal/trace"
)

// decodeTrace parses the export back into generic trace-event maps.
func decodeTrace(t *testing.T, out string) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}
	return events
}

func findEvents(events []map[string]any, ph, name string) []map[string]any {
	var out []map[string]any
	for _, e := range events {
		if e["ph"] == ph && (name == "" || strings.Contains(e["name"].(string), name)) {
			out = append(out, e)
		}
	}
	return out
}

func TestChromeTraceMatchedMessageSpan(t *testing.T) {
	events := []trace.Event{
		{Cycle: 100, Kind: trace.KindMsgSend, Node: 2, Peer: 5, Addr: 0xbeef},
		{Cycle: 130, Kind: trace.KindMsgDeliver, Node: 5, Peer: 2, Addr: 0xbeef, Info: 60},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	decoded := decodeTrace(t, sb.String())

	spans := findEvents(decoded, "X", "msg 2→5")
	if len(spans) != 1 {
		t.Fatalf("got %d matched message spans, want 1:\n%s", len(spans), sb.String())
	}
	s := spans[0]
	if s["ts"] != float64(100) || s["dur"] != float64(30) {
		t.Errorf("span ts=%v dur=%v, want ts=100 dur=30", s["ts"], s["dur"])
	}
	if s["tid"] != float64(3) { // source node 2 → tid 3
		t.Errorf("span tid=%v, want 3 (source node + 1)", s["tid"])
	}
	args := s["args"].(map[string]any)
	if args["addr"] != "0xbeef" || args["latencyN"] != float64(60) {
		t.Errorf("span args = %v, want addr=0xbeef latencyN=60", args)
	}
}

func TestChromeTraceFIFOMatching(t *testing.T) {
	// Two in-flight messages on the same (src, dst, addr) flow:
	// wormhole delivery is in-order, so the first delivery must match
	// the first send.
	events := []trace.Event{
		{Cycle: 10, Kind: trace.KindMsgSend, Node: 0, Peer: 1, Addr: 0x40},
		{Cycle: 20, Kind: trace.KindMsgSend, Node: 0, Peer: 1, Addr: 0x40},
		{Cycle: 25, Kind: trace.KindMsgDeliver, Node: 1, Peer: 0, Addr: 0x40},
		{Cycle: 38, Kind: trace.KindMsgDeliver, Node: 1, Peer: 0, Addr: 0x40},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	spans := findEvents(decodeTrace(t, sb.String()), "X", "msg 0→1")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0]["ts"] != float64(10) || spans[0]["dur"] != float64(15) {
		t.Errorf("first span ts=%v dur=%v, want 10/15 (FIFO match)", spans[0]["ts"], spans[0]["dur"])
	}
	if spans[1]["ts"] != float64(20) || spans[1]["dur"] != float64(18) {
		t.Errorf("second span ts=%v dur=%v, want 20/18 (FIFO match)", spans[1]["ts"], spans[1]["dur"])
	}
}

func TestChromeTraceKernelSkipSpans(t *testing.T) {
	events := []trace.Event{
		{Cycle: 50, Kind: trace.KindKernelSkip, Node: -1, Peer: -1, Info: 200},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	spans := findEvents(decodeTrace(t, sb.String()), "X", "skip")
	if len(spans) != 1 {
		t.Fatalf("got %d skip spans, want 1", len(spans))
	}
	s := spans[0]
	if s["ts"] != float64(50) || s["dur"] != float64(200) || s["tid"] != float64(0) {
		t.Errorf("skip span ts=%v dur=%v tid=%v, want 50/200/0 (kernel track)", s["ts"], s["dur"], s["tid"])
	}
}

func TestChromeTraceUnmatchedBecomeInstants(t *testing.T) {
	events := []trace.Event{
		{Cycle: 10, Kind: trace.KindMsgSend, Node: 3, Peer: 4, Addr: 0x80},    // never delivered
		{Cycle: 12, Kind: trace.KindMsgDeliver, Node: 7, Peer: 6, Addr: 0x90}, // send outside ring
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	decoded := decodeTrace(t, sb.String())
	if got := findEvents(decoded, "i", "send 3→4 (unmatched)"); len(got) != 1 {
		t.Errorf("unmatched send instants = %d, want 1", len(got))
	}
	if got := findEvents(decoded, "i", "deliver 6→7"); len(got) != 1 {
		t.Errorf("unmatched deliver instants = %d, want 1", len(got))
	}
	if got := findEvents(decoded, "X", "msg"); len(got) != 0 {
		t.Errorf("got %d message spans from unmatched events, want 0", len(got))
	}
}

func TestChromeTraceTxnAndInstantKinds(t *testing.T) {
	events := []trace.Event{
		{Cycle: 300, Kind: trace.KindTxnComplete, Node: 1, Addr: 0x100, Info: 45},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	decoded := decodeTrace(t, sb.String())
	txns := findEvents(decoded, "X", "txn")
	if len(txns) != 1 {
		t.Fatalf("got %d txn spans, want 1", len(txns))
	}
	if txns[0]["ts"] != float64(255) || txns[0]["dur"] != float64(45) {
		t.Errorf("txn span ts=%v dur=%v, want 255/45 (completion minus latency)", txns[0]["ts"], txns[0]["dur"])
	}
}

func TestChromeTraceMetadataAndDeterminism(t *testing.T) {
	events := []trace.Event{
		// Several unmatched sends across distinct flows: the export's
		// leftover pass iterates a map, so a second run must still
		// produce byte-identical output.
		{Cycle: 5, Kind: trace.KindMsgSend, Node: 4, Peer: 0, Addr: 0x1},
		{Cycle: 3, Kind: trace.KindMsgSend, Node: 2, Peer: 9, Addr: 0x2},
		{Cycle: 3, Kind: trace.KindMsgSend, Node: 1, Peer: 8, Addr: 0x3},
		{Cycle: 8, Kind: trace.KindMsgSend, Node: 0, Peer: 7, Addr: 0x4},
	}
	render := func() string {
		var sb strings.Builder
		if err := WriteChromeTrace(&sb, events); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("export is nondeterministic:\n%s\nvs\n%s", first, again)
		}
	}
	decoded := decodeTrace(t, first)
	if got := findEvents(decoded, "M", "process_name"); len(got) != 1 {
		t.Errorf("process_name metadata events = %d, want 1", len(got))
	}
	// kernel + 4 node tracks.
	if got := findEvents(decoded, "M", "thread_name"); len(got) != 5 {
		t.Errorf("thread_name metadata events = %d, want 5", len(got))
	}
}
