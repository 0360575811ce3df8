// Package engine executes declarative grids of independent experiment
// cells on a bounded worker pool. The simulation studies — the
// validation sweep, replay fits, the simulated gain and tolerance
// studies, cmd/sweep and the served /v1/sweep — are embarrassingly
// parallel grids of machine runs; this package is the one place that
// knows how to fan such a grid out across cores while keeping three
// guarantees a sequential loop provides implicitly:
//
//   - Determinism: results come back in grid order, independent of how
//     the scheduler interleaves workers. OnResult callbacks fire in
//     grid order too, as soon as the completed prefix extends, so CSV
//     rows can stream without reordering.
//   - Isolation: a cell that fails — returning an error or panicking
//     deep inside the simulator — yields an error Result; the rest of
//     the grid still runs and the caller decides whether one bad cell
//     sinks the study.
//   - Cancellation: the context passed to Grid reaches every cell's
//     Run function, so Ctrl-C (or a test deadline) stops in-flight
//     simulations at the next poll point and marks unstarted cells
//     with the context's error.
//
// The model-only figures do not use it: their points are solves of
// about a microsecond, which a worker pool only slows down.
package engine

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Cell is one grid point: a key naming it in progress output and error
// reports, and the function that computes its row.
type Cell[T any] struct {
	// Key identifies the cell ("random:1/p=2", "N=4096", ...).
	Key string
	// Run computes the cell's row. It must honor ctx cancellation at
	// its own poll granularity and may be called from any worker
	// goroutine; cells must not share mutable state.
	Run func(ctx context.Context) (T, error)
}

// Result is one cell's outcome, delivered in grid order.
type Result[T any] struct {
	// Index is the cell's position in the input grid.
	Index int
	// Key echoes the cell's key.
	Key string
	// Row is the computed row; the zero value when Err is set.
	Row T
	// Err is the cell's failure: the error Run returned, a recovered
	// panic ("panic: ..."), or the context error for cells that never
	// started because the grid was canceled.
	Err error
	// Elapsed is the cell's wall time (zero for never-started cells).
	Elapsed time.Duration
}

// Exec configures how a grid executes. The zero value runs on
// GOMAXPROCS workers with no progress output, which is what library
// callers (tests, benchmarks) want; the cmds wire -workers and
// -progress flags into it.
type Exec struct {
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line as each cell starts
	// and finishes plus a final summary — streamed, unordered, meant
	// for stderr. Each done or fail line also carries the whole grid's
	// delivered count and, until the last cell, the estimated time
	// remaining: "(2/6 cells, ~40s remaining)".
	Progress io.Writer
	// Observer, when non-nil, receives a Progress sample after every
	// cell completion — the machine-readable twin of the done/fail
	// lines' count and ETA, published at exactly the grid's cell
	// boundaries. It is called under the engine's internal lock and
	// must not block; the live observability layer stores the sample
	// into an atomic pointer and returns.
	Observer func(Progress)
}

// Progress is a point-in-time view of a running grid, delivered to
// Exec.Observer at cell boundaries.
type Progress struct {
	// Done counts delivered cells (including failures); Failed counts
	// the failures among them; Total is the grid size.
	Done, Failed, Total int
	// Elapsed is the grid's wall time so far. Remaining estimates the
	// time to completion at the achieved whole-grid rate (zero until
	// the first cell lands, and zero again when the grid is done).
	Elapsed, Remaining time.Duration
}

// Options configures one Grid call.
type Options[T any] struct {
	Exec
	// OnResult, when non-nil, is called in strict grid order as the
	// completed prefix of the grid extends. It runs on whichever
	// worker goroutine completed the prefix, one call at a time.
	OnResult func(Result[T])
}

// Stats summarizes a completed grid.
type Stats struct {
	// Cells is the grid size; Started counts cells whose Run was
	// invoked; Failed counts results with a non-nil Err (including
	// cancellations).
	Cells, Started, Failed int
	// Workers is the resolved worker count.
	Workers int
	// Wall is the whole grid's wall time; CellTime is the sum of
	// per-cell wall times (CellTime/Wall is the achieved parallelism).
	Wall, CellTime time.Duration
}

// String formats the summary line the Progress writer receives.
func (s Stats) String() string {
	return fmt.Sprintf("engine: %d cells (%d started, %d failed) on %d workers in %v (cell time %v)",
		s.Cells, s.Started, s.Failed, s.Workers, s.Wall.Round(time.Millisecond), s.CellTime.Round(time.Millisecond))
}

// Grid runs every cell and returns the results in grid order:
// result i corresponds to cells[i] regardless of scheduling. Per-cell
// failures (errors, panics) are captured in the Result rather than
// aborting the grid; use FirstError or Rows to apply fail-fast
// semantics afterwards. Canceling ctx stops unstarted cells
// immediately and in-flight cells at their next poll point.
func Grid[T any](ctx context.Context, cells []Cell[T], opts Options[T]) ([]Result[T], Stats) {
	n := len(cells)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	stats := Stats{Cells: n, Workers: workers}
	if n == 0 {
		return nil, stats
	}

	results := make([]Result[T], n)
	begin := time.Now()

	var mu sync.Mutex // guards done/next/stats counters and Progress writes
	done := make([]bool, n)
	next := 0 // first index not yet delivered to OnResult

	// deliver marks cell i complete, reports it, and flushes the
	// contiguous completed prefix through OnResult, preserving grid
	// order. started is the cell's start ordinal, or 0 for a cell the
	// canceled grid never started, which gets no progress line.
	delivered := 0
	deliver := func(i, started int) {
		mu.Lock()
		defer mu.Unlock()
		r := results[i]
		done[i] = true
		delivered++
		if r.Err != nil {
			stats.Failed++
		}
		stats.CellTime += r.Elapsed
		var p Progress
		if opts.Progress != nil || opts.Observer != nil {
			p = Progress{Done: delivered, Failed: stats.Failed, Total: n, Elapsed: time.Since(begin)}
			if delivered < n {
				// ETA at the achieved whole-grid rate, which already
				// folds in the worker parallelism.
				p.Remaining = time.Duration(float64(p.Elapsed) / float64(delivered) * float64(n-delivered))
			}
			if opts.Progress != nil && started > 0 {
				status, tally, cause := "done ", fmt.Sprintf("%d/%d cells", delivered, n), ""
				if delivered < n {
					tally += fmt.Sprintf(", ~%v remaining", p.Remaining.Round(time.Second))
				}
				if r.Err != nil {
					status, cause = "fail ", fmt.Sprintf(": %v", r.Err)
				}
				fmt.Fprintf(opts.Progress, "engine: %s %d/%d %s in %v (%s)%s\n",
					status, started, n, r.Key, r.Elapsed.Round(time.Millisecond), tally, cause)
			}
		}
		for next < n && done[next] {
			if opts.OnResult != nil {
				opts.OnResult(results[next])
			}
			next++
		}
		if opts.Observer != nil {
			opts.Observer(p)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := cells[i]
				if err := ctx.Err(); err != nil {
					// Grid canceled before this cell started.
					results[i] = Result[T]{Index: i, Key: c.Key, Err: err}
					deliver(i, 0)
					continue
				}
				mu.Lock()
				stats.Started++
				started := stats.Started
				if opts.Progress != nil {
					fmt.Fprintf(opts.Progress, "engine: start %d/%d %s\n", started, n, c.Key)
				}
				mu.Unlock()
				t0 := time.Now()
				row, err := runCell(ctx, c)
				results[i] = Result[T]{Index: i, Key: c.Key, Row: row, Err: err, Elapsed: time.Since(t0)}
				deliver(i, started)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	stats.Wall = time.Since(begin)
	if opts.Progress != nil {
		fmt.Fprintln(opts.Progress, stats.String())
	}
	return results, stats
}

// runCell invokes one cell, converting panics from deep inside the
// simulator into ordinary errors so one broken cell cannot kill the
// grid.
func runCell[T any](ctx context.Context, c Cell[T]) (row T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if c.Run == nil {
		return row, fmt.Errorf("engine: cell %q has no Run function", c.Key)
	}
	return c.Run(ctx)
}

// FirstError returns the first failed result in grid order, or nil.
// It restores the sequential drivers' fail-fast semantics: the error
// reported is the one the old code would have stopped at.
func FirstError[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Rows unwraps the result rows in grid order, failing on the first
// cell error.
func Rows[T any](results []Result[T]) ([]T, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	rows := make([]T, len(results))
	for i, r := range results {
		rows[i] = r.Row
	}
	return rows, nil
}
