package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/machine"
	"locality/internal/obs"
	"locality/internal/sweepgrid"
)

// Config shapes a model server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Addr is the listen address (":8090", "localhost:0", ...).
	Addr string
	// Ledger, when set, is the JSONL run-ledger path; the server
	// appends one row per sweep and one row per request class on
	// Close.
	Ledger string
	// BatchWindow bounds the point-query micro-batch window (default
	// 2ms; negative disables batching delay).
	BatchWindow time.Duration
}

// Server is the model-serving HTTP front end. Build with New, stop
// with Close.
type Server struct {
	cfg     Config
	cache   core.SolveCache // per server, so tests get isolated counters
	batcher *batcher
	classes map[string]*classMetrics
	bridge  *obs.Bridge
	start   time.Time

	sweeps, sweepRows atomic.Int64

	ledgerMu   sync.Mutex
	ledgerErrs []error // failed ledger appends, returned by Close

	ln  net.Listener
	srv *http.Server
}

// New binds the listener and starts serving in a background goroutine,
// returning once the address is resolvable.
func New(cfg Config) (*Server, error) {
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.BatchWindow < 0 {
		cfg.BatchWindow = 0
	}
	s := &Server{
		cfg:     cfg,
		classes: make(map[string]*classMetrics, len(requestClasses)),
		bridge:  obs.NewBridge(),
		start:   time.Now(),
	}
	s.batcher = newBatcher(&s.cache, cfg.BatchWindow)
	for _, class := range requestClasses {
		s.classes[class] = newClassMetrics(class)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/gain", s.handleGain)
	mux.HandleFunc("/v1/sensitivity", s.handleSensitivity)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43817").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and appends the per-request-class ledger
// rows. It returns the listener's error joined with every ledger
// append that failed since New.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.appendClassLedger()
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	return errors.Join(append([]error{err}, s.ledgerErrs...)...)
}

// appendLedger appends rec to the run ledger. A failed append never
// fails a request; Close reports it.
func (s *Server) appendLedger(rec obs.RunRecord) {
	if err := obs.AppendLedger(s.cfg.Ledger, rec); err != nil {
		s.ledgerMu.Lock()
		s.ledgerErrs = append(s.ledgerErrs, err)
		s.ledgerMu.Unlock()
	}
}

// appendClassLedger writes one summary row per request class that saw
// traffic: request count, error count, and latency percentiles.
func (s *Server) appendClassLedger() {
	if s.cfg.Ledger == "" {
		return
	}
	wall := time.Since(s.start)
	for _, class := range requestClasses {
		cm := s.classes[class]
		n := cm.requests.Load()
		if n == 0 {
			continue
		}
		rec := obs.NewRunRecord("modelserver")
		rec.Label = "class:" + class
		rec.Requests = n
		rec.P50Micros, rec.P99Micros = cm.percentiles()
		rec.WallSeconds = wall.Seconds()
		rec.PeakHeapMB = obs.HeapMB()
		if e := cm.errors.Load(); e > 0 {
			rec.Error = fmt.Sprintf("%d of %d requests failed", e, n)
		}
		s.appendLedger(rec)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxBodyBytes caps a request body, far above any valid request (a
// few hundred bytes, sweep specs included).
const maxBodyBytes = 1 << 20

// decodePost enforces POST + a single JSON value of at most
// maxBodyBytes as the body on the /v1 endpoints:
// 405 for another method, 413 for a longer body, 400 for a malformed
// one, a field v does not have, or trailing data after the value. A
// misspelt or retired field would otherwise be ignored silently and
// the request answered with defaults.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST with a JSON body"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SolveRequest
	if !decodePost(w, r, &req) {
		return
	}
	cfg, err := req.Resolve()
	if err == nil {
		var sol core.Solution
		var coalesced bool
		sol, coalesced, err = s.batcher.solve(r.Context(), cfg)
		if err == nil {
			s.classes["solve"].observe(time.Since(t0), false)
			writeJSON(w, http.StatusOK, SolveResponse{Solution: sol, Coalesced: coalesced})
			return
		}
	}
	s.classes["solve"].observe(time.Since(t0), true)
	writeError(w, http.StatusBadRequest, err)
}

func (s *Server) handleGain(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req GainRequest
	if !decodePost(w, r, &req) {
		return
	}
	cfg, err := req.Resolve()
	if err == nil {
		var res core.GainResult
		res, err = core.ExpectedGain(cfg, req.Nodes)
		if err == nil {
			s.classes["gain"].observe(time.Since(t0), false)
			writeJSON(w, http.StatusOK, GainResponse{GainResult: res})
			return
		}
	}
	s.classes["gain"].observe(time.Since(t0), true)
	writeError(w, http.StatusBadRequest, err)
}

func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SensitivityRequest
	if !decodePost(w, r, &req) {
		return
	}
	contexts := req.Contexts
	if contexts == 0 {
		contexts = 2
	}
	var err error
	switch {
	case contexts < 1:
		err = fmt.Errorf("contexts = %d, must be >= 1", contexts)
	case req.MessagesPer < 0:
		err = fmt.Errorf("messages_per = %g, must be >= 0 (0 takes the calibrated g)", req.MessagesPer)
	case req.CriticalPath < 0:
		err = fmt.Errorf("critical_path = %g, must be >= 0 (0 takes the calibrated c)", req.CriticalPath)
	}
	if err != nil {
		s.classes["sensitivity"].observe(time.Since(t0), true)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g := req.MessagesPer
	if g == 0 {
		g = core.AlewifeMessagesPer
	}
	c := req.CriticalPath
	if c == 0 {
		c = core.AlewifeCriticalPathFor(contexts)
	}
	s.classes["sensitivity"].observe(time.Since(t0), false)
	writeJSON(w, http.StatusOK, SensitivityResponse{Sensitivity: core.ExpectedSensitivity(contexts, g, c)})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SweepRequest
	if !decodePost(w, r, &req) {
		return
	}
	g, err := sweepgrid.New(req.Spec)
	if err != nil {
		s.classes["sweep"].observe(time.Since(t0), true)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.sweeps.Add(1)
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	failedRows, stats, err := s.streamSweep(r.Context(), w, g)
	s.classes["sweep"].observe(time.Since(t0), err != nil || failedRows > 0)
	if s.cfg.Ledger != "" {
		rec := obs.NewRunRecord("modelserver")
		rec.Label = fmt.Sprintf("sweep %s k=%d n=%d (%d cells, %d workers)",
			g.Spec.Mappings, g.Spec.Radix, g.Spec.Dims, g.Len(), stats.Workers)
		rec.Radix, rec.Dims, rec.Nodes, rec.Mapping = g.Spec.Radix, g.Spec.Dims, g.Tor.Nodes(), g.Spec.Mappings
		rec.Kernel = g.Kernel.String()
		rec.FillOutcome(time.Since(t0), int64(g.Len())*(g.Spec.Warmup+g.Spec.Window))
		if err != nil {
			rec.Error = err.Error()
		} else if failedRows > 0 {
			rec.Error = fmt.Sprintf("%d of %d cells failed", failedRows, g.Len())
		}
		s.appendLedger(rec)
	}
}

// streamSweep runs g's cells on the experiment engine, as cmd/sweep
// does, and writes the CSV cmd/sweep writes: kernel comment, header,
// then one row per cell in grid order, each flushed as soon as the
// completed prefix reaches it. It returns the number of error rows.
// A write error means the client is gone: the cells still running are
// canceled and the error returned.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, g *sweepgrid.Grid) (failed int, stats engine.Stats, err error) {
	flusher, _ := w.(http.Flusher)
	cw := csv.NewWriter(w)
	write := func(row []string) error {
		if err := cw.Write(row); err != nil {
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, g.KernelComment()); err != nil {
		return 0, stats, err
	}
	if err := write(g.Header()); err != nil {
		return 0, stats, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cells := make([]engine.Cell[machine.Metrics], g.Len())
	for i := range cells {
		cells[i] = engine.Cell[machine.Metrics]{Key: g.Key(i), Run: func(ctx context.Context) (machine.Metrics, error) {
			return g.Run(ctx, i)
		}}
	}
	// OnResult runs on the engine's workers one call at a time, and the
	// last call returns before engine.Grid does, so w is never written
	// concurrently or after this function returns.
	_, stats = engine.Grid(ctx, cells, engine.Options[machine.Metrics]{
		OnResult: func(res engine.Result[machine.Metrics]) {
			if err != nil {
				return
			}
			var row []string
			if res.Err != nil {
				failed++
				row = g.ErrorRow(res.Index, res.Err)
			} else {
				row = g.FormatRow(res.Index, res.Row)
			}
			if err = write(row); err != nil {
				cancel()
				return
			}
			s.sweepRows.Add(1)
		},
	})
	if err == nil {
		err = ctx.Err()
	}
	return failed, stats, err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Publish-on-scrape: render the serving counters into a snapshot
	// the obs exposition writer understands, then let it format.
	s.bridge.Publish(obs.Sample{Label: "modelserver", Metrics: s.renderMetrics()})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteExposition(w, s.bridge)
}

// healthy is the server's only health state: a server that answers
// is ready for every endpoint.
var healthy = obs.Health{Status: "ok"}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthy)
}

// serverStatus is the /statusz?format=json document.
type serverStatus struct {
	Health    obs.Health       `json:"health"`
	UptimeSec float64          `json:"uptime_seconds"`
	Requests  map[string]int64 `json:"requests"`
	Errors    map[string]int64 `json:"errors,omitempty"`
	Cache     core.CacheStats  `json:"cache"`
	Sweeps    int64            `json:"sweeps"`
	SweepRows int64            `json:"sweep_rows"`
}

func (s *Server) buildStatus() serverStatus {
	st := serverStatus{
		Health:    healthy,
		UptimeSec: time.Since(s.start).Seconds(),
		Requests:  make(map[string]int64, len(requestClasses)),
		Errors:    make(map[string]int64),
		Cache:     s.cache.Stats(),
		Sweeps:    s.sweeps.Load(),
		SweepRows: s.sweepRows.Load(),
	}
	for _, class := range requestClasses {
		st.Requests[class] = s.classes[class].requests.Load()
		if e := s.classes[class].errors.Load(); e > 0 {
			st.Errors[class] = e
		}
	}
	return st
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
	b.WriteString("<html><head><title>modelserver statusz</title></head><body style=\"font-family:monospace\">")
	fmt.Fprintf(&b, "<h3>modelserver status</h3><p>health: <b>%s</b> — uptime %.0fs</p>", st.Health.Status, st.UptimeSec)
	fmt.Fprintf(&b, "<p>requests: solve %d, gain %d, sensitivity %d, sweep %d</p>",
		st.Requests["solve"], st.Requests["gain"], st.Requests["sensitivity"], st.Requests["sweep"])
	fmt.Fprintf(&b, "<p>cache: %d/%d entries, %d hits, %d misses, %d evictions</p>",
		st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
	fmt.Fprintf(&b, "<p>sweeps: %d (%d rows)</p>", st.Sweeps, st.SweepRows)
	b.WriteString("<p><a href=\"/metrics\">metrics</a> · <a href=\"/statusz?format=json\">json</a> · <a href=\"/healthz\">healthz</a></p></body></html>")
	fmt.Fprint(w, b.String())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h3>locality model server</h3><ul>
<li>POST <code>/v1/solve</code> — combined-model operating point</li>
<li>POST <code>/v1/gain</code> — locality gain at N nodes</li>
<li>POST <code>/v1/sensitivity</code> — latency sensitivity s = p·g/c</li>
<li>POST <code>/v1/sweep</code> — simulation sweep grid (streams CSV)</li>
<li><a href="/statusz">/statusz</a> · <a href="/metrics">/metrics</a> · <a href="/healthz">/healthz</a></li>
</ul></body></html>`)
}
