package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"locality/internal/report"
	"locality/internal/telemetry"
)

// Server is the live observability endpoint for a run: /metrics
// (Prometheus text exposition), /statusz (human and JSON run status
// with the embedded bottleneck report), /healthz (watchdog-aware
// probe), and the standard /debug/pprof profiling handlers. Handlers
// read only immutable bridge snapshots, so the server coexists with a
// running single-threaded simulation without locks or interference.
type Server struct {
	bridge *Bridge
	ln     net.Listener
	srv    *http.Server
}

// NewServer starts serving on addr (":9090", "localhost:0", ...) in a
// background goroutine and returns once the listener is bound, so
// callers can print the resolved address before the run starts.
func NewServer(addr string, b *Bridge) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{bridge: b, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// The default pprof handlers register on http.DefaultServeMux; use
	// the named entry points so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43817"), which differs
// from the requested one when it asked for port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately; in-flight scrapes are dropped,
// which is fine for an observability sidecar.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h3>locality observability</h3><ul>
<li><a href="/statusz">/statusz</a> — run status (append ?format=json for JSON)</li>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/healthz">/healthz</a> — health probe</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiles</li>
</ul></body></html>`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteExposition(w, s.bridge)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.bridge.Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Healthy() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// status is the /statusz?format=json document; the HTML view renders
// the same data.
type status struct {
	Health       Health                   `json:"health"`
	UptimeSec    float64                  `json:"uptime_seconds"`
	Label        string                   `json:"label,omitempty"`
	Cycle        int64                    `json:"cycle,omitempty"`
	Target       int64                    `json:"target_cycles,omitempty"`
	CyclesPerSec float64                  `json:"cycles_per_sec,omitempty"`
	ETASec       float64                  `json:"eta_seconds,omitempty"`
	SnapshotSeq  int64                    `json:"snapshot_seq,omitempty"`
	SnapshotAge  float64                  `json:"snapshot_age_seconds,omitempty"`
	SkipRatio    *float64                 `json:"skip_ratio,omitempty"`
	ActiveRoute  *float64                 `json:"active_routers,omitempty"`
	Grid         *gridStatus              `json:"grid,omitempty"`
	Bottlenecks  *report.BottleneckReport `json:"bottlenecks,omitempty"`
}

type gridStatus struct {
	Done         int     `json:"done"`
	Failed       int     `json:"failed"`
	Total        int     `json:"total"`
	ElapsedSec   float64 `json:"elapsed_seconds"`
	RemainingSec float64 `json:"remaining_seconds,omitempty"`
}

func (s *Server) buildStatus() status {
	st := status{Health: s.bridge.Health(), UptimeSec: time.Since(s.bridge.Start()).Seconds()}
	if snap := s.bridge.Snapshot(); snap != nil {
		st.Label = snap.Label
		st.Cycle = snap.Cycle
		st.Target = snap.Target
		st.CyclesPerSec = snap.CyclesPerSec
		st.ETASec = snap.ETA.Seconds()
		st.SnapshotSeq = snap.Seq
		st.SnapshotAge = time.Since(snap.At).Seconds()
		idx := indexGauges(snap.Metrics)
		st.SkipRatio = idx["kernel/skip_ratio"]
		st.ActiveRoute = idx["net/active_routers"]
		st.Bottlenecks = report.AnalyzeBottlenecks(snap.Metrics)
	}
	if g := s.bridge.Grid(); g != nil {
		st.Grid = &gridStatus{
			Done: g.Done, Failed: g.Failed, Total: g.Total,
			ElapsedSec: g.Elapsed.Seconds(), RemainingSec: g.Remaining.Seconds(),
		}
	}
	return st
}

// statusGauges pulls scalar values out of a snapshot export by name;
// missing names stay nil so JSON omits them.
type statusGauges map[string]*float64

func indexGauges(metrics []telemetry.Metric) statusGauges {
	idx := make(statusGauges, len(metrics))
	for i := range metrics {
		m := metrics[i]
		if m.Kind == telemetry.KindCounter || m.Kind == telemetry.KindGauge {
			v := m.Value
			idx[m.Name] = &v
		}
	}
	return idx
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.buildStatus()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<html><head><meta http-equiv=\"refresh\" content=\"2\"><title>locality statusz</title></head><body style=\"font-family:monospace\">")
	fmt.Fprintf(&b, "<h3>locality run status</h3><p>health: <b>%s</b>", html.EscapeString(st.Health.Status))
	if st.Health.Reason != "" {
		fmt.Fprintf(&b, " (%s)", html.EscapeString(st.Health.Reason))
	}
	fmt.Fprintf(&b, " — uptime %.0fs</p>", st.UptimeSec)
	if st.SnapshotSeq > 0 {
		fmt.Fprintf(&b, "<p>cell <b>%s</b>: cycle %d", html.EscapeString(st.Label), st.Cycle)
		if st.Target > 0 {
			fmt.Fprintf(&b, " / %d (%.1f%%)", st.Target, 100*float64(st.Cycle)/float64(st.Target))
		}
		if st.CyclesPerSec > 0 {
			fmt.Fprintf(&b, " at %.0f cyc/s", st.CyclesPerSec)
		}
		if st.ETASec > 0 {
			fmt.Fprintf(&b, ", ~%.0fs remaining", st.ETASec)
		}
		fmt.Fprintf(&b, " (snapshot #%d, %.1fs old)</p>", st.SnapshotSeq, st.SnapshotAge)
		var facts []string
		if st.SkipRatio != nil {
			facts = append(facts, fmt.Sprintf("skip ratio %.2f", *st.SkipRatio))
		}
		if st.ActiveRoute != nil {
			facts = append(facts, fmt.Sprintf("%.0f active routers", *st.ActiveRoute))
		}
		if len(facts) > 0 {
			fmt.Fprintf(&b, "<p>%s</p>", html.EscapeString(strings.Join(facts, " — ")))
		}
	} else {
		b.WriteString("<p>no snapshot published yet (machine constructing, or telemetry off)</p>")
	}
	if st.Grid != nil {
		fmt.Fprintf(&b, "<p>sweep: %d/%d cells done (%d failed), %.0fs elapsed",
			st.Grid.Done, st.Grid.Total, st.Grid.Failed, st.Grid.ElapsedSec)
		if st.Grid.RemainingSec > 0 {
			fmt.Fprintf(&b, ", ~%.0fs remaining", st.Grid.RemainingSec)
		}
		b.WriteString("</p>")
	}
	if st.Bottlenecks != nil {
		var tbl strings.Builder
		st.Bottlenecks.Table().Render(&tbl)
		fmt.Fprintf(&b, "<pre>%s</pre>", html.EscapeString(tbl.String()))
	}
	b.WriteString("<p><a href=\"/metrics\">metrics</a> · <a href=\"/statusz?format=json\">json</a> · <a href=\"/debug/pprof/\">pprof</a></p></body></html>")
	fmt.Fprint(w, b.String())
}
