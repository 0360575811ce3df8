package serve

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"locality/internal/core"
	"locality/internal/obs"
	"locality/internal/sweepgrid"
)

// Config shapes a model server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Addr is the listen address (":8090", "localhost:0", ...).
	Addr string
	// Ledger, when set, is the JSONL run-ledger path; the server
	// appends one row per request class on Close and one row per
	// completed sweep.
	Ledger string
	// BatchWindow bounds the point-query micro-batch window (default
	// 2ms; negative disables batching delay).
	BatchWindow time.Duration
	// StaleAfter is how long a worker may go without a heartbeat
	// before /healthz degrades and sweeps stop using it (default 10s).
	StaleAfter time.Duration
	// LocalWorkers is the goroutine count for the local sweep fallback
	// when no remote workers are registered (default 1; sweeps are
	// CPU-bound simulations, so more only helps on multicore hosts).
	LocalWorkers int
}

// Server is the model-serving HTTP front end. Build with New, stop
// with Close.
type Server struct {
	cfg     Config
	cache   core.SolveCache // per server, so tests get isolated counters
	batcher *batcher
	workers *registry
	classes map[string]*classMetrics
	bridge  *obs.Bridge
	start   time.Time

	sweepStats sweepCounters

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
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 10 * time.Second
	}
	if cfg.LocalWorkers <= 0 {
		cfg.LocalWorkers = 1
	}
	s := &Server{
		cfg:     cfg,
		workers: newRegistry(cfg.StaleAfter),
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
	mux.HandleFunc("/v1/workers/register", s.handleRegister)
	mux.HandleFunc("/v1/workers/heartbeat", s.handleHeartbeat)
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

// Close stops the server and flushes the per-request-class ledger
// rows.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.appendClassLedger()
	return err
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
		if err := obs.AppendLedger(s.cfg.Ledger, rec); err != nil {
			// Ledger writes are observability, never request-path
			// failures; nothing useful to do but drop it.
			_ = err
		}
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
// maxBodyBytes as the body on the /v1 endpoints and the worker's /run:
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
	if contexts < 1 {
		s.classes["sensitivity"].observe(time.Since(t0), true)
		writeError(w, http.StatusBadRequest, fmt.Errorf("contexts = %d, must be >= 1", contexts))
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

	// Runner selection: every live registered worker, or the local
	// goroutine pool when none are registered.
	var runners []cellRunner
	for _, ws := range s.workers.live() {
		runners = append(runners, &httpRunner{wid: ws.ID, addr: ws.Addr, client: http.DefaultClient})
	}
	if len(runners) == 0 {
		for i := 0; i < s.cfg.LocalWorkers; i++ {
			runners = append(runners, &localRunner{wid: fmt.Sprintf("local-%d", i), g: g})
		}
	}

	// Stream the CSV exactly as cmd/sweep writes it: kernel comment,
	// header, rows in grid order. Flush after every row so clients see
	// in-order progress while later cells still run.
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	if _, err := fmt.Fprintln(w, g.KernelComment()); err != nil {
		return
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(g.Header()); err != nil {
		return
	}
	cw.Flush()
	if flusher != nil {
		flusher.Flush()
	}
	emit := func(row []string) error {
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
	failedRows, err := s.dispatch(r.Context(), g, runners, emit)
	s.classes["sweep"].observe(time.Since(t0), err != nil || failedRows > 0)
	if s.cfg.Ledger != "" {
		rec := obs.NewRunRecord("modelserver")
		rec.Label = fmt.Sprintf("sweep %s k=%d n=%d (%d cells, %d workers)",
			g.Spec.Mappings, g.Spec.Radix, g.Spec.Dims, g.Len(), len(runners))
		rec.Radix, rec.Dims, rec.Nodes, rec.Mapping = g.Spec.Radix, g.Spec.Dims, g.Tor.Nodes(), g.Spec.Mappings
		rec.Kernel = g.Kernel.String()
		rec.FillOutcome(time.Since(t0), int64(g.Len())*(g.Spec.Warmup+g.Spec.Window))
		if err != nil {
			rec.Error = err.Error()
		} else if failedRows > 0 {
			rec.Error = fmt.Sprintf("%d of %d cells failed", failedRows, g.Len())
		}
		if lerr := obs.AppendLedger(s.cfg.Ledger, rec); lerr != nil {
			_ = lerr
		}
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg workerRegistration
	if !decodePost(w, r, &reg) {
		return
	}
	if reg.ID == "" || reg.Addr == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("register needs id and addr"))
		return
	}
	if !strings.HasPrefix(reg.Addr, "http://") && !strings.HasPrefix(reg.Addr, "https://") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("addr %q must be a base URL", reg.Addr))
		return
	}
	s.workers.upsert(reg.ID, reg.Addr)
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var reg workerRegistration
	if !decodePost(w, r, &reg) {
		return
	}
	if !s.workers.heartbeat(reg.ID) {
		// Unknown worker: tell it to re-register (server restarts wipe
		// the registry).
		writeError(w, http.StatusNotFound, fmt.Errorf("worker %q not registered", reg.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Publish-on-scrape: render the serving counters into a snapshot
	// the obs exposition writer understands, then let it format.
	s.bridge.Publish(obs.Sample{Label: "modelserver", Metrics: s.renderMetrics()})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteExposition(w, s.bridge)
}

func (s *Server) health() obs.Health {
	if _, stale := s.workers.snapshot(); len(stale) > 0 {
		return obs.Health{Status: "degraded", Reason: fmt.Sprintf("workers stale: %s", strings.Join(stale, ", "))}
	}
	return obs.Health{Status: "ok"}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if !h.Healthy() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// serverStatus is the /statusz?format=json document.
type serverStatus struct {
	Health    obs.Health       `json:"health"`
	UptimeSec float64          `json:"uptime_seconds"`
	Requests  map[string]int64 `json:"requests"`
	Errors    map[string]int64 `json:"errors,omitempty"`
	Cache     core.CacheStats  `json:"cache"`
	Workers   []workerState    `json:"workers,omitempty"`
	Sweeps    int64            `json:"sweeps"`
	SweepRows int64            `json:"sweep_rows"`
	Requeues  int64            `json:"sweep_requeues"`
}

func (s *Server) buildStatus() serverStatus {
	st := serverStatus{
		Health:    s.health(),
		UptimeSec: time.Since(s.start).Seconds(),
		Requests:  make(map[string]int64, len(requestClasses)),
		Errors:    make(map[string]int64),
		Cache:     s.cache.Stats(),
		Sweeps:    s.sweepStats.sweeps.Load(),
		SweepRows: s.sweepStats.rows.Load(),
		Requeues:  s.sweepStats.requeues.Load(),
	}
	for _, class := range requestClasses {
		st.Requests[class] = s.classes[class].requests.Load()
		if e := s.classes[class].errors.Load(); e > 0 {
			st.Errors[class] = e
		}
	}
	st.Workers, _ = s.workers.snapshot()
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
	fmt.Fprintf(&b, "<h3>modelserver status</h3><p>health: <b>%s</b>", st.Health.Status)
	if st.Health.Reason != "" {
		fmt.Fprintf(&b, " (%s)", st.Health.Reason)
	}
	fmt.Fprintf(&b, " — uptime %.0fs</p>", st.UptimeSec)
	fmt.Fprintf(&b, "<p>requests: solve %d, gain %d, sensitivity %d, sweep %d</p>",
		st.Requests["solve"], st.Requests["gain"], st.Requests["sensitivity"], st.Requests["sweep"])
	fmt.Fprintf(&b, "<p>cache: %d/%d entries, %d hits, %d misses, %d evictions</p>",
		st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
	if len(st.Workers) > 0 {
		b.WriteString("<p>workers:</p><ul>")
		for _, wk := range st.Workers {
			fmt.Fprintf(&b, "<li>%s @ %s (beat %.1fs ago)</li>", wk.ID, wk.Addr, time.Since(wk.LastBeat).Seconds())
		}
		b.WriteString("</ul>")
	} else {
		b.WriteString("<p>no workers registered (sweeps run locally)</p>")
	}
	fmt.Fprintf(&b, "<p>sweeps: %d (%d rows, %d requeues)</p>", st.Sweeps, st.SweepRows, st.Requeues)
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
