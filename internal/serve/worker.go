package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"locality/internal/sweepgrid"
)

// Worker is a modelworker: a process that registers with a modelserver
// and executes sweep chunks the server POSTs to its /run endpoint.
// Build with NewWorker, start with Start, stop with Close.
type Worker struct {
	// ID identifies this worker to the server ("worker-1").
	ID string
	// ServerURL is the modelserver base URL ("http://host:8090").
	ServerURL string
	// HeartbeatEvery is the heartbeat period (default 2s).
	HeartbeatEvery time.Duration
	// Client is the HTTP client used for register/heartbeat (default
	// http.DefaultClient).
	Client *http.Client

	mu    sync.Mutex
	grids map[string]*sweepgrid.Grid // spec JSON → parsed grid, so one sweep's chunks parse once

	ln     net.Listener
	srv    *http.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// NewWorker builds a worker that will advertise itself to serverURL.
func NewWorker(id, serverURL string) *Worker {
	return &Worker{
		ID:             id,
		ServerURL:      serverURL,
		HeartbeatEvery: 2 * time.Second,
		Client:         http.DefaultClient,
		grids:          make(map[string]*sweepgrid.Grid),
	}
}

// Handler returns the worker's HTTP handler (POST /run), for embedding
// in tests without a real listener.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", w.handleRun)
	return mux
}

// Start binds addr, registers with the server (advertising the bound
// address), and launches the heartbeat loop. advertiseHost overrides
// the host part of the advertised URL when the bound one ("[::]",
// "0.0.0.0") is not reachable from the server; empty means
// "127.0.0.1".
func (w *Worker) Start(addr, advertiseHost string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: worker listen %s: %w", addr, err)
	}
	w.ln = ln
	w.srv = &http.Server{Handler: w.Handler()}
	go w.srv.Serve(ln)

	if advertiseHost == "" {
		advertiseHost = "127.0.0.1"
	}
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		w.srv.Close()
		return fmt.Errorf("serve: worker address %q: %w", ln.Addr(), err)
	}
	advertise := fmt.Sprintf("http://%s", net.JoinHostPort(advertiseHost, port))
	if err := w.register(advertise); err != nil {
		w.srv.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.done = make(chan struct{})
	go w.heartbeatLoop(ctx, advertise)
	return nil
}

// Addr returns the worker's bound address; empty before Start.
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Close stops the heartbeat loop and the HTTP server.
func (w *Worker) Close() error {
	if w.cancel != nil {
		w.cancel()
		<-w.done
	}
	if w.srv != nil {
		return w.srv.Close()
	}
	return nil
}

func (w *Worker) post(path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := w.Client.Post(w.ServerURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s: %s", path, resp.Status)
	}
	return nil
}

func (w *Worker) register(advertise string) error {
	return w.post("/v1/workers/register", workerRegistration{ID: w.ID, Addr: advertise})
}

// heartbeatLoop beats until Close. A 404 means the server forgot us
// (restart) — re-register; other failures are transient and just
// retried next period, with the server's staleness window as the
// arbiter of death.
func (w *Worker) heartbeatLoop(ctx context.Context, advertise string) {
	defer close(w.done)
	tick := time.NewTicker(w.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			err := w.post("/v1/workers/heartbeat", workerRegistration{ID: w.ID})
			if err != nil && ctx.Err() == nil {
				// Best effort; re-registering also refreshes the beat.
				_ = w.register(advertise)
			}
		}
	}
}

// grid parses a chunk's spec, memoizing per distinct spec so a sweep's
// many chunks share one parsed grid (topology, mappings, kernel).
func (w *Worker) grid(spec sweepgrid.Spec) (*sweepgrid.Grid, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if g, ok := w.grids[string(key)]; ok {
		return g, nil
	}
	g, err := sweepgrid.New(spec)
	if err != nil {
		return nil, err
	}
	// Bound the memo: sweeps come one spec at a time, so keeping only a
	// handful covers overlap without growing with query history.
	if len(w.grids) >= 8 {
		for k := range w.grids {
			delete(w.grids, k)
			break
		}
	}
	w.grids[string(key)] = g
	return g, nil
}

func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	var req runChunkRequest
	if !decodePost(rw, r, &req) {
		return
	}
	g, err := w.grid(req.Spec)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if req.Start < 0 || req.Count < 1 || req.Start+req.Count > g.Len() {
		writeError(rw, http.StatusBadRequest,
			fmt.Errorf("chunk [%d,%d) out of range for a %d-cell grid", req.Start, req.Start+req.Count, g.Len()))
		return
	}
	rows := make([][]string, 0, req.Count)
	for i := req.Start; i < req.Start+req.Count; i++ {
		row, err := g.RunRow(r.Context(), i)
		if err != nil && r.Context().Err() != nil {
			return // client gone; nothing to answer
		}
		// Cell failures are error= rows in the stream, same as cmd/sweep.
		rows = append(rows, row)
	}
	writeJSON(rw, http.StatusOK, runChunkResponse{Rows: rows})
}
