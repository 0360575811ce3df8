package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/sweepgrid"
)

// workerState is one registered modelworker.
type workerState struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	LastBeat time.Time `json:"last_heartbeat"`
}

// registry tracks registered workers and their heartbeat freshness.
// Safe for concurrent use; registration and heartbeats are rare
// relative to request traffic.
type registry struct {
	mu         sync.Mutex
	workers    map[string]*workerState
	staleAfter time.Duration
}

func newRegistry(staleAfter time.Duration) *registry {
	return &registry{
		workers:    make(map[string]*workerState),
		staleAfter: staleAfter,
	}
}

// upsert registers (or re-registers) a worker.
func (r *registry) upsert(id, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers[id] = &workerState{ID: id, Addr: addr, LastBeat: time.Now()}
}

// heartbeat refreshes a known worker and reports whether it was known
// (an unknown ID means the worker must re-register, e.g. after a
// server restart).
func (r *registry) heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if ok {
		w.LastBeat = time.Now()
	}
	return ok
}

func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.workers, id)
}

// snapshot returns every worker sorted by ID, plus the IDs whose last
// heartbeat is older than staleAfter.
func (r *registry) snapshot() (all []workerState, stale []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := time.Now().Add(-r.staleAfter)
	for _, w := range r.workers {
		all = append(all, *w)
		if w.LastBeat.Before(cutoff) {
			stale = append(stale, w.ID)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	sort.Strings(stale)
	return all, stale
}

// live returns the non-stale workers, sorted by ID.
func (r *registry) live() []workerState {
	all, stale := r.snapshot()
	if len(stale) == 0 {
		return all
	}
	dead := make(map[string]bool, len(stale))
	for _, id := range stale {
		dead[id] = true
	}
	out := all[:0]
	for _, w := range all {
		if !dead[w.ID] {
			out = append(out, w)
		}
	}
	return out
}

// cellRunner executes one cell of a sweep grid and returns its row.
type cellRunner interface {
	id() string
	run(ctx context.Context, spec sweepgrid.Spec, cell int) ([]string, error)
}

// httpRunner proxies cells to a remote modelworker. Any transport or
// status failure marks the worker dead for this sweep: its cell is
// requeued and the runner retired.
type httpRunner struct {
	wid    string
	addr   string
	client *http.Client
}

func (r *httpRunner) id() string { return r.wid }

func (r *httpRunner) run(ctx context.Context, spec sweepgrid.Spec, cell int) ([]string, error) {
	body, err := json.Marshal(runChunkRequest{Spec: spec, Start: cell, Count: 1})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(r.addr, "/")+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("worker %s: %s: %s", r.wid, resp.Status, strings.TrimSpace(string(msg)))
	}
	var out runChunkResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("worker %s: decoding rows: %w", r.wid, err)
	}
	if len(out.Rows) != 1 {
		return nil, fmt.Errorf("worker %s: returned %d rows for one cell", r.wid, len(out.Rows))
	}
	return out.Rows[0], nil
}

// localRunner executes cells in-process — the standalone fallback,
// and the rescue path when every remote worker has died mid-sweep.
type localRunner struct {
	wid string
	g   *sweepgrid.Grid
}

func (r *localRunner) id() string { return r.wid }

func (r *localRunner) run(ctx context.Context, _ sweepgrid.Spec, cell int) ([]string, error) {
	row, err := r.g.RunRow(ctx, cell)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Cell failures become error= rows, exactly as cmd/sweep emits
	// them; only cancellation fails the run.
	return row, nil
}

// sweepCounters aggregates dispatcher activity across sweeps for the
// metrics exposition.
type sweepCounters struct {
	sweeps, rows, chunks, requeues, workerDeaths atomic.Int64
}

// cursor hands out a sweep's cells one at a time to self-scheduling
// runners: a runner asks for its next cell when it finishes the last,
// so a fast runner simply runs more cells and no chunk size needs
// tuning (DESIGN §5k has the measurement). A dead runner's cell comes
// back through requeue and is served before fresh cells. Safe for
// concurrent use.
type cursor struct {
	mu       sync.Mutex
	total    int
	next     int   // first cell never yet handed out
	requeued []int // cells returned by dead runners, FIFO
	done     int   // cells recorded complete
}

// take returns the next cell to run. ok is false when no cell is
// available right now — which is not the same as the sweep being
// finished: a cell held by a dying runner may still come back through
// requeue.
func (c *cursor) take() (cell int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.requeued) > 0 {
		cell = c.requeued[0]
		c.requeued = c.requeued[1:]
		return cell, true
	}
	if c.next >= c.total {
		return 0, false
	}
	c.next++
	return c.next - 1, true
}

// requeue returns a taken but unfinished cell to the front of the
// queue.
func (c *cursor) requeue(cell int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requeued = append(c.requeued, cell)
}

// record marks one taken cell complete.
func (c *cursor) record() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done++
}

// finished reports whether every cell has been recorded complete.
func (c *cursor) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done >= c.total
}

// cellResult is what a runner goroutine reports back: a completed
// cell's row, or a runner death (err != nil).
type cellResult struct {
	cell   int
	row    []string
	runner cellRunner
	err    error
}

// dispatch drives one sweep: runners pull cells from a shared cursor,
// the cells of runners that die are requeued, a local runner takes
// over if every remote dies, and emit is called for each row in grid
// order (the completed-prefix cursor). It returns the number of
// error= rows.
func (s *Server) dispatch(ctx context.Context, g *sweepgrid.Grid, runners []cellRunner, emit func([]string) error) (failed int, err error) {
	total := g.Len()
	if total == 0 {
		return 0, nil
	}
	cur := &cursor{total: total}
	rows := make([][]string, total)
	results := make(chan cellResult)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func(r cellRunner) {
		go func() {
			for {
				cell, ok := cur.take()
				if !ok {
					if cur.finished() {
						return
					}
					// Another runner holds a cell that may yet be
					// requeued; poll briefly rather than exiting.
					select {
					case <-time.After(10 * time.Millisecond):
						continue
					case <-runCtx.Done():
						return
					}
				}
				row, err := r.run(runCtx, g.Spec, cell)
				if err != nil {
					cur.requeue(cell)
					s.sweepStats.requeues.Add(1)
					s.sweepStats.workerDeaths.Add(1)
					select {
					case results <- cellResult{runner: r, err: err}:
					case <-runCtx.Done():
					}
					return
				}
				cur.record()
				s.sweepStats.chunks.Add(1)
				select {
				case results <- cellResult{cell: cell, row: row}:
				case <-runCtx.Done():
					return
				}
			}
		}()
	}
	liveRunners := len(runners)
	for _, r := range runners {
		launch(r)
	}

	s.sweepStats.sweeps.Add(1)
	emitted := 0
	localRescues := 0
	for emitted < total {
		select {
		case <-ctx.Done():
			return failed, ctx.Err()
		case res := <-results:
			if res.err != nil {
				liveRunners--
				if hr, ok := res.runner.(*httpRunner); ok {
					// A dead worker stops heartbeating on its own, but
					// dropping it now keeps /healthz honest immediately.
					s.workers.remove(hr.wid)
				}
				if liveRunners == 0 {
					// Every runner died; finish the sweep ourselves so a
					// submitted grid always completes.
					localRescues++
					r := &localRunner{wid: fmt.Sprintf("local-rescue-%d", localRescues), g: g}
					launch(r)
					liveRunners++
				}
				continue
			}
			rows[res.cell] = res.row
			s.sweepStats.rows.Add(1)
			for emitted < total && rows[emitted] != nil {
				if isErrorRow(rows[emitted]) {
					failed++
				}
				if err := emit(rows[emitted]); err != nil {
					return failed, err
				}
				emitted++
			}
		}
	}
	return failed, nil
}

// isErrorRow recognizes the error= marker sweepgrid.ErrorRow writes in
// the first measurement column.
func isErrorRow(row []string) bool {
	return len(row) > 4 && strings.HasPrefix(row[4], "error=")
}
