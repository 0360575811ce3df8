package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"locality/internal/trace"
)

// Chrome trace-event export: renders a trace.Tracer's retained events
// as the Trace Event Format JSON that chrome://tracing and Perfetto
// load directly. One simulated P-cycle maps to one microsecond of
// trace time. The export lays out:
//
//   - a "kernel" track (tid 0) of complete-event spans for every
//     quiescent span the event kernel skipped (KindKernelSkip);
//   - one track per node (tid = node+1) carrying message spans —
//     send→deliver pairs matched FIFO per (src, dst, addr) — plus
//     transaction-complete spans reconstructed from their recorded
//     latency.
//
// Sends whose delivery fell outside the retained ring (or after the
// run ended) render as instant markers rather than spans, so a
// truncated trace still loads.

// chromeEvent is one Trace Event Format entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// pairKey identifies a message flow for send/deliver matching.
type pairKey struct {
	src, dst int
	addr     uint64
}

// WriteChromeTrace writes the events as a Trace Event Format JSON
// array. Events must be in chronological order (trace.Tracer.Events
// returns them that way).
func WriteChromeTrace(w io.Writer, events []trace.Event) error {
	out := make([]chromeEvent, 0, len(events)+8)
	meta := func(name string, tid int, label string) {
		out = append(out, chromeEvent{
			Name: name, Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": label},
		})
	}
	meta("process_name", 0, "machine")
	meta("thread_name", 0, "kernel")

	nodes := map[int]bool{}
	track := func(node int) int {
		if !nodes[node] {
			nodes[node] = true
			meta("thread_name", node+1, fmt.Sprintf("node %d", node))
		}
		return node + 1
	}

	// FIFO queues of unmatched sends per flow. Wormhole routing
	// delivers a flow's messages in injection order, so FIFO matching
	// is exact.
	pending := map[pairKey][]trace.Event{}

	for _, e := range events {
		switch e.Kind {
		case trace.KindKernelSkip:
			out = append(out, chromeEvent{
				Name: "skip", Cat: "kernel", Ph: "X",
				Ts: e.Cycle, Dur: e.Info, Pid: 0, Tid: 0,
				Args: map[string]any{"cycles": e.Info},
			})
		case trace.KindMsgSend:
			k := pairKey{src: e.Node, dst: e.Peer, addr: e.Addr}
			pending[k] = append(pending[k], e)
		case trace.KindMsgDeliver:
			// Delivery records (dst, src); the matching send recorded
			// (src, dst).
			k := pairKey{src: e.Peer, dst: e.Node, addr: e.Addr}
			if q := pending[k]; len(q) > 0 {
				send := q[0]
				pending[k] = q[1:]
				dur := e.Cycle - send.Cycle
				if dur < 1 {
					dur = 1
				}
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("msg %d→%d", send.Node, send.Peer),
					Cat:  "msg", Ph: "X",
					Ts: send.Cycle, Dur: dur, Pid: 0, Tid: track(send.Node),
					Args: map[string]any{"addr": fmt.Sprintf("%#x", e.Addr), "latencyN": e.Info},
				})
			} else {
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("deliver %d→%d", e.Peer, e.Node),
					Cat:  "msg", Ph: "i", S: "t",
					Ts: e.Cycle, Pid: 0, Tid: track(e.Node),
				})
			}
		case trace.KindTxnComplete:
			ts := e.Cycle - e.Info
			dur := e.Info
			if dur < 1 {
				dur = 1
			}
			out = append(out, chromeEvent{
				Name: "txn", Cat: "txn", Ph: "X",
				Ts: ts, Dur: dur, Pid: 0, Tid: track(e.Node),
				Args: map[string]any{"addr": fmt.Sprintf("%#x", e.Addr)},
			})
		}
	}
	// Sends never matched (delivery outside the ring, or still in
	// flight at the end) become instants so they are still visible.
	// Collected and sorted so the export is deterministic despite the
	// map-keyed matching state.
	var leftovers []trace.Event
	for _, q := range pending {
		leftovers = append(leftovers, q...)
	}
	sort.Slice(leftovers, func(i, j int) bool {
		a, b := leftovers[i], leftovers[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Addr < b.Addr
	})
	for _, send := range leftovers {
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("send %d→%d (unmatched)", send.Node, send.Peer),
			Cat:  "msg", Ph: "i", S: "t",
			Ts: send.Cycle, Pid: 0, Tid: track(send.Node),
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
