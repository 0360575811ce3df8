package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineDeterministicOrder runs a grid much wider than the worker
// pool with deliberately skewed cell durations and checks that results
// and OnResult callbacks both come back in exact grid order. Run under
// -race this also exercises the pool's synchronization.
func TestEngineDeterministicOrder(t *testing.T) {
	const n = 100
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (int, error) {
				// Early cells sleep longest so completion order is
				// roughly the reverse of grid order.
				time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	var delivered []int
	results, stats := Grid(context.Background(), cells, Options[int]{
		Exec: Exec{Workers: 8},
		OnResult: func(r Result[int]) {
			delivered = append(delivered, r.Index)
		},
	})
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Key != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("result %d has index %d key %q", i, r.Index, r.Key)
		}
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		if r.Row != i*i {
			t.Fatalf("cell %d row = %d, want %d", i, r.Row, i*i)
		}
	}
	for i, idx := range delivered {
		if idx != i {
			t.Fatalf("OnResult delivery order %v not grid order", delivered)
		}
	}
	if stats.Cells != n || stats.Started != n || stats.Failed != 0 {
		t.Errorf("stats = %+v, want %d cells started, 0 failed", stats, n)
	}
	if stats.Workers != 8 {
		t.Errorf("workers = %d, want 8", stats.Workers)
	}
	if err := FirstError(results); err != nil {
		t.Errorf("FirstError = %v, want nil", err)
	}
	rows, err := Rows(results)
	if err != nil || len(rows) != n || rows[7] != 49 {
		t.Errorf("Rows = %v-element slice, err %v", len(rows), err)
	}
}

// TestEngineCancellation cancels a grid mid-flight: in-flight cells
// must see the canceled context, and cells that never started must be
// marked with the context error without running.
func TestEngineCancellation(t *testing.T) {
	const n = 32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	release := make(chan struct{})
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (int, error) {
				ran.Add(1)
				if i == 0 {
					cancel() // first cell cancels the whole grid
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-release:
					return i, nil
				}
			},
		}
	}
	defer close(release)
	results, stats := Grid(ctx, cells, Options[int]{Exec: Exec{Workers: 2}})
	if int(ran.Load()) >= n {
		t.Fatalf("all %d cells ran despite cancellation", n)
	}
	if results[0].Err == nil || !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("cell 0 error = %v, want context.Canceled", results[0].Err)
	}
	// Every cell must be accounted for: either it ran and returned the
	// context error, or it never started and carries it directly.
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d error = %v, want context.Canceled", i, r.Err)
		}
	}
	if stats.Failed != n {
		t.Errorf("failed = %d, want %d", stats.Failed, n)
	}
	if err := FirstError(results); !errors.Is(err, context.Canceled) {
		t.Errorf("FirstError = %v, want context.Canceled", err)
	}
}

// TestEnginePanicIsolation checks that a panicking cell becomes an
// error result while every other cell still completes.
func TestEnginePanicIsolation(t *testing.T) {
	const n = 70
	cells := make([]Cell[string], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[string]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (string, error) {
				if i%13 == 5 {
					panic(fmt.Sprintf("cell %d exploded", i))
				}
				return fmt.Sprintf("row-%d", i), nil
			},
		}
	}
	results, stats := Grid(context.Background(), cells, Options[string]{Exec: Exec{Workers: 8}})
	for i, r := range results {
		if i%13 == 5 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panic:") {
				t.Errorf("cell %d error = %v, want recovered panic", i, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("cell %d failed: %v", i, r.Err)
		}
		if r.Row != fmt.Sprintf("row-%d", i) {
			t.Errorf("cell %d row = %q", i, r.Row)
		}
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%13 == 5 {
			want++
		}
	}
	if stats.Failed != want {
		t.Errorf("failed = %d, want %d", stats.Failed, want)
	}
	if _, err := Rows(results); err == nil {
		t.Error("Rows should surface the first panic as an error")
	}
}

// TestEngineProgress checks the observability stream: start/done lines
// for every cell, a fail line for the failing one, and the final
// summary.
func TestEngineProgress(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := syncWriter{mu: &mu, b: &buf}
	cells := []Cell[int]{
		{Key: "ok", Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Key: "bad", Run: func(ctx context.Context) (int, error) { return 0, errors.New("boom") }},
	}
	_, stats := Grid(context.Background(), cells, Options[int]{Exec: Exec{Workers: 2, Progress: w}})
	out := buf.String()
	for _, want := range []string{"engine: start", "engine: done", "engine: fail", "bad", "boom", "2 cells (2 started, 1 failed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if stats.Failed != 1 || stats.Started != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestEngineNilRun checks that a malformed cell fails cleanly instead
// of panicking the pool.
func TestEngineNilRun(t *testing.T) {
	results, _ := Grid(context.Background(), []Cell[int]{{Key: "empty"}}, Options[int]{})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "no Run function") {
		t.Errorf("err = %v, want no-Run error", results[0].Err)
	}
}

// TestEngineEmptyGrid checks the degenerate case.
func TestEngineEmptyGrid(t *testing.T) {
	results, stats := Grid(context.Background(), nil, Options[int]{})
	if results != nil || stats.Cells != 0 {
		t.Errorf("empty grid: results=%v stats=%+v", results, stats)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestEngineProgressETA: each done line carries the whole grid's
// delivered count; mid-grid ones also estimate the time remaining, and
// the last one, with nothing left to run, does not.
func TestEngineProgressETA(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := syncWriter{mu: &mu, b: &buf}
	cells := make([]Cell[int], 4)
	for i := range cells {
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell%d", i),
			Run: func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	_, stats := Grid(context.Background(), cells, Options[int]{Exec: Exec{Workers: 1, Progress: w}})
	if stats.Failed != 0 || stats.Started != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	var doneLines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "engine: done") {
			doneLines = append(doneLines, line)
		}
	}
	if len(doneLines) != 4 {
		t.Fatalf("%d done lines, want 4:\n%s", len(doneLines), buf.String())
	}
	for i, line := range doneLines {
		tally := fmt.Sprintf("(%d/4 cells", i+1)
		if !strings.Contains(line, tally) {
			t.Errorf("done line %d lacks %q: %s", i, tally, line)
		}
		if mid := i < 3; strings.Contains(line, "remaining") != mid {
			t.Errorf("done line %d: remaining estimate present=%v, want %v: %s", i, !mid, mid, line)
		}
	}
}

// TestEngineObserver: the cell-boundary observer sees every completion
// exactly once, with monotonically increasing Done counts, the right
// Total, and failures counted; the final sample reports the full grid
// with no time remaining.
func TestEngineObserver(t *testing.T) {
	const n = 12
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context) (int, error) {
				if i == 3 {
					return 0, errors.New("boom")
				}
				return i, nil
			},
		}
	}
	var samples []Progress
	_, _ = Grid(context.Background(), cells, Options[int]{
		Exec: Exec{Workers: 4, Observer: func(p Progress) { samples = append(samples, p) }},
	})
	if len(samples) != n {
		t.Fatalf("observer saw %d samples, want %d", len(samples), n)
	}
	for i, p := range samples {
		if p.Done != i+1 || p.Total != n {
			t.Errorf("sample %d: Done=%d Total=%d, want %d/%d", i, p.Done, p.Total, i+1, n)
		}
	}
	last := samples[n-1]
	if last.Failed != 1 {
		t.Errorf("final sample Failed=%d, want 1", last.Failed)
	}
	if last.Remaining != 0 {
		t.Errorf("final sample Remaining=%v, want 0", last.Remaining)
	}
}
