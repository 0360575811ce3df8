package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locality/internal/core"
	"locality/internal/obs"
	"locality/internal/sweepgrid"
)

// startServer boots a server on a loopback ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func TestSolveEndpointMatchesDirectSolve(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	var got SolveResponse
	resp := postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 4, D: 2.5}}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want, err := core.Alewife(4, 2.5).Solve()
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if got.Solution != want {
		t.Fatalf("served solution = %+v, want %+v", got.Solution, want)
	}

	// Second identical request must be a cache hit.
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 4, D: 2.5}}, &got)
	if st := s.cache.Stats(); st.Hits < 1 {
		t.Fatalf("cache stats after repeat query: %+v, want >= 1 hit", st)
	}
}

func TestSolveEndpointRejectsBadRequests(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()
	preset := func(n int) string { return `{"preset":"` + strings.Repeat("x", n) + `"}` }
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		errHas                   string
	}{
		{"unknown preset", http.MethodPost, "/v1/solve", `{"preset":"cm5"}`, http.StatusBadRequest, "preset"},
		{"negative contexts", http.MethodPost, "/v1/solve", `{"contexts":-3}`, http.StatusBadRequest, "contexts"},
		{"GET", http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed, "POST"},
		// Just over the cap, so the client finishes writing before the
		// server closes the connection.
		{"oversized body", http.MethodPost, "/v1/solve", preset(maxBodyBytes), http.StatusRequestEntityTooLarge, "too large"},
		{"trailing data", http.MethodPost, "/v1/solve", `{"contexts":2} trailing garbage`, http.StatusBadRequest, "trailing"},
		{"second value", http.MethodPost, "/v1/solve", `{"contexts":2} {}`, http.StatusBadRequest, "trailing"},
		{"long unknown preset", http.MethodPost, "/v1/solve", preset(100_000), http.StatusBadRequest, "preset"},
		// A misspelt field would otherwise be ignored and the query
		// solved at the default distance.
		{"unknown field", http.MethodPost, "/v1/solve", `{"contexts":4,"dd":2.5}`, http.StatusBadRequest, `unknown field "dd"`},
		// A sweep asking for the retired fault injection is refused
		// rather than run fault-free.
		{"retired sweep field", http.MethodPost, "/v1/sweep",
			`{"k":4,"n":2,"contexts":[1],"mappings":"identity","window":100,"fault_rate":0.01}`,
			http.StatusBadRequest, `unknown field "fault_rate"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", c.method, err)
			}
			defer resp.Body.Close()
			reply, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d (reply %.200s)", resp.StatusCode, c.status, reply)
			}
			var e errorResponse
			if err := json.Unmarshal(reply, &e); err != nil || !strings.Contains(e.Error, c.errHas) {
				t.Fatalf("error reply %.200q (%v), want one mentioning %q", reply, err, c.errHas)
			}
			// Rejections never echo the request back at length.
			if len(reply) > 512 {
				t.Errorf("error reply is %d bytes", len(reply))
			}
		})
	}
}

func TestGainEndpointMatchesExpectedGain(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	var got GainResponse
	resp := postJSON(t, base+"/v1/gain", GainRequest{ConfigSpec: ConfigSpec{Contexts: 2}, Nodes: 512}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want, err := core.ExpectedGain(core.Alewife(2, 1), 512)
	if err != nil {
		t.Fatalf("ExpectedGain: %v", err)
	}
	if got.GainResult != want {
		t.Fatalf("served gain = %+v, want %+v", got.GainResult, want)
	}

	var e errorResponse
	if resp := postJSON(t, base+"/v1/gain", GainRequest{Nodes: 1}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nodes=1 status = %d, want 400", resp.StatusCode)
	}
}

func TestSensitivityEndpointMatchesCore(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	var got SensitivityResponse
	postJSON(t, base+"/v1/sensitivity", SensitivityRequest{Contexts: 4}, &got)
	want := core.ExpectedSensitivity(4, core.AlewifeMessagesPer, core.AlewifeCriticalPathFor(4))
	if got.Sensitivity != want {
		t.Fatalf("sensitivity = %g, want %g", got.Sensitivity, want)
	}
}

// TestBatcherCoalescesConcurrentIdenticalQueries drives the batcher
// directly: N concurrent solves of one config must produce exactly one
// cache miss, with joiners marked coalesced.
func TestBatcherCoalescesConcurrentIdenticalQueries(t *testing.T) {
	cache := core.NewSolveCache(0)
	b := newBatcher(cache, 5*time.Millisecond)
	cfg := core.Alewife(4, 3)

	const n = 16
	var wg sync.WaitGroup
	sols := make([]core.Solution, n)
	coalesced := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sols[i], coalesced[i], errs[i] = b.solve(context.Background(), cfg)
		}(i)
	}
	wg.Wait()

	want, err := cfg.Solve()
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	joined := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if sols[i] != want {
			t.Fatalf("solve %d = %+v, want %+v", i, sols[i], want)
		}
		if coalesced[i] {
			joined++
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if joined == 0 {
		t.Fatalf("no request reported coalesced out of %d concurrent identical queries", n)
	}
	if got := b.coalesced.Load(); got != int64(joined) {
		t.Fatalf("coalesced counter = %d, joiners = %d", got, joined)
	}
}

func testSweepSpec() sweepgrid.Spec {
	return sweepgrid.Spec{
		Radix: 4, Dims: 2,
		Contexts: []int{1, 2},
		Mappings: "identity,random:1",
		Warmup:   50, Window: 100,
	}
}

// localCSV renders the grid the way cmd/sweep would: kernel comment,
// header, rows in grid order.
func localCSV(t *testing.T, spec sweepgrid.Spec) string {
	t.Helper()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, g.KernelComment())
	b.WriteString(strings.Join(g.Header(), ","))
	b.WriteString("\n")
	for i := 0; i < g.Len(); i++ {
		row, err := g.RunRow(context.Background(), i)
		if err != nil {
			t.Fatalf("RunRow(%d): %v", i, err)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

func postSweep(t *testing.T, base string, req SweepRequest) (string, int) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep stream: %v", err)
	}
	return string(body), resp.StatusCode
}

// TestSweepLocalFallbackMatchesDirectRun: no workers registered, so the
// sweep runs on the local fallback and must stream byte-identical CSV
// whether one goroutine runs every cell or four race for them.
func TestSweepLocalFallbackMatchesDirectRun(t *testing.T) {
	want := localCSV(t, testSweepSpec())
	for _, workers := range []int{1, 4} {
		s := startServer(t, Config{LocalWorkers: workers})
		got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: testSweepSpec()})
		if status != http.StatusOK {
			t.Fatalf("%d local workers: status = %d: %s", workers, status, got)
		}
		if got != want {
			t.Errorf("%d local workers: served sweep differs from direct run\nserved:\n%s\ndirect:\n%s", workers, got, want)
		}
	}
}

// startWorkers spins up n in-process workers registered with s.
func startWorkers(t *testing.T, s *Server, n int) []*Worker {
	t.Helper()
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(fmt.Sprintf("w%d", i), "http://"+s.Addr())
		w.HeartbeatEvery = 100 * time.Millisecond
		if err := w.Start("127.0.0.1:0", ""); err != nil {
			t.Fatalf("worker %d start: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
	}
	return workers
}

// TestSweepDistributedMatchesDirectRun: two remote workers must stream
// the exact bytes a local cmd/sweep-style run produces.
func TestSweepDistributedMatchesDirectRun(t *testing.T) {
	s := startServer(t, Config{})
	startWorkers(t, s, 2)
	want := localCSV(t, testSweepSpec())
	got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: testSweepSpec()})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	if got != want {
		t.Errorf("distributed sweep differs from direct run\nserved:\n%s\ndirect:\n%s", got, want)
	}
	if st := s.sweepStats.chunks.Load(); st == 0 {
		t.Fatalf("no chunks dispatched through remote workers")
	}
}

// deadRunner fails every chunk, standing in for a worker killed
// mid-sweep. It closes gate (when set) on its first run call so a test
// can hold other runners back until the death has provably happened.
type deadRunner struct {
	name string
	gate chan struct{}
	once sync.Once
}

func (d *deadRunner) id() string { return d.name }
func (d *deadRunner) run(context.Context, sweepgrid.Spec, int) ([]string, error) {
	if d.gate != nil {
		d.once.Do(func() { close(d.gate) })
	}
	return nil, fmt.Errorf("worker %s: connection refused", d.name)
}

// gatedRunner delegates to inner only once gate closes. On a
// single-CPU host one runner could otherwise drain the whole grid
// before another ever runs, which would make a worker-death test
// vacuous.
type gatedRunner struct {
	inner cellRunner
	gate  chan struct{}
}

func (r *gatedRunner) id() string { return r.inner.id() }
func (r *gatedRunner) run(ctx context.Context, spec sweepgrid.Spec, cell int) ([]string, error) {
	select {
	case <-r.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.inner.run(ctx, spec, cell)
}

// TestSweepSurvivesWorkerDeath: one healthy runner plus one that dies
// on its first cell — the dead runner's cell requeues and the sweep
// still completes byte-identically.
func TestSweepSurvivesWorkerDeath(t *testing.T) {
	s := startServer(t, Config{})
	spec := testSweepSpec()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	gate := make(chan struct{})
	runners := []cellRunner{
		&deadRunner{name: "doomed", gate: gate},
		&gatedRunner{inner: &localRunner{wid: "healthy", g: g}, gate: gate},
	}
	var got bytes.Buffer
	emit := func(row []string) error {
		got.WriteString(strings.Join(row, ","))
		got.WriteString("\n")
		return nil
	}
	failed, err := s.dispatch(context.Background(), g, runners, emit)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if failed != 0 {
		t.Fatalf("failed rows = %d", failed)
	}
	var want strings.Builder
	for i := 0; i < g.Len(); i++ {
		row, err := g.RunRow(context.Background(), i)
		if err != nil {
			t.Fatalf("RunRow(%d): %v", i, err)
		}
		want.WriteString(strings.Join(row, ","))
		want.WriteString("\n")
	}
	if got.String() != want.String() {
		t.Fatalf("rows after worker death differ\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if s.sweepStats.workerDeaths.Load() == 0 || s.sweepStats.requeues.Load() == 0 {
		t.Fatalf("death/requeue counters not advanced: deaths=%d requeues=%d",
			s.sweepStats.workerDeaths.Load(), s.sweepStats.requeues.Load())
	}
}

// TestSweepAllWorkersDeadRescuesLocally: every runner dies; the
// dispatcher must spawn the local rescue and finish.
func TestSweepAllWorkersDeadRescuesLocally(t *testing.T) {
	s := startServer(t, Config{})
	spec := testSweepSpec()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	runners := []cellRunner{&deadRunner{name: "d0"}, &deadRunner{name: "d1"}}
	rows := 0
	failed, err := s.dispatch(context.Background(), g, runners, func([]string) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if failed != 0 || rows != g.Len() {
		t.Fatalf("rows = %d (failed %d), want %d clean rows", rows, failed, g.Len())
	}
}

func TestSweepCursorPartitionsExactly(t *testing.T) {
	// However many runners race for cells, every cell of [0, total) is
	// handed out exactly once and the cursor finishes.
	for _, total := range []int{0, 1, 7, 27, 100} {
		for _, workers := range []int{1, 2, 4} {
			c := &cursor{total: total}
			taken := make([]atomic.Int32, total)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						cell, ok := c.take()
						if !ok {
							return
						}
						if cell < 0 || cell >= total {
							t.Errorf("N=%d P=%d: cell %d out of range", total, workers, cell)
							return
						}
						taken[cell].Add(1)
						c.record()
					}
				}()
			}
			wg.Wait()
			for i := range taken {
				if n := taken[i].Load(); n != 1 {
					t.Errorf("N=%d P=%d: cell %d taken %d times", total, workers, i, n)
				}
			}
			if !c.finished() {
				t.Errorf("N=%d P=%d: not finished after a full drain", total, workers)
			}
		}
	}
}

func TestSweepCursorRequeueServesFirst(t *testing.T) {
	c := &cursor{total: 10}
	lost, _ := c.take() // taken by a runner that then dies
	fresh, _ := c.take()
	c.requeue(lost)
	back, ok := c.take()
	if !ok || back != lost {
		t.Fatalf("requeued cell not served first: got %d ok=%v, want %d", back, ok, lost)
	}
	if back == fresh {
		t.Fatal("requeued cell collided with a fresh one")
	}
	if next, _ := c.take(); next != fresh+1 {
		t.Fatalf("fresh cells resumed at %d, want %d", next, fresh+1)
	}
}

func TestSweepCursorReassemblyDeterminism(t *testing.T) {
	// However the cells interleave across racing runners — one runner
	// or four, with or without a runner that dies holding a cell —
	// results reassembled by index are byte-identical.
	render := func(workers int, withDeath bool) []byte {
		const total = 500
		c := &cursor{total: total}
		out := make([]int, total)
		deadline := time.Now().Add(10 * time.Second)
		var wg sync.WaitGroup
		runner := func(dies bool) {
			defer wg.Done()
			for {
				cell, ok := c.take()
				if !ok {
					if c.finished() || time.Now().After(deadline) {
						return
					}
					// A dying runner may still hand its cell back.
					time.Sleep(time.Millisecond)
					continue
				}
				if dies {
					c.requeue(cell)
					return
				}
				out[cell] = cell * cell
				c.record()
			}
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go runner(false)
		}
		if withDeath {
			wg.Add(1)
			go runner(true)
		}
		wg.Wait()
		if !c.finished() {
			t.Fatalf("P=%d death=%v: drain did not complete", workers, withDeath)
		}
		var buf bytes.Buffer
		for i, v := range out {
			fmt.Fprintf(&buf, "%d,%d\n", i, v)
		}
		return buf.Bytes()
	}

	want := render(1, false)
	for _, workers := range []int{1, 2, 4} {
		for _, withDeath := range []bool{false, true} {
			if got := render(workers, withDeath); !bytes.Equal(got, want) {
				t.Errorf("%d runners (death=%v) produced different bytes", workers, withDeath)
			}
		}
	}
}

func TestSweepCursorFinishedOnlyAfterEveryRecord(t *testing.T) {
	const total = 5
	c := &cursor{total: total}
	var cells []int
	for {
		cell, ok := c.take()
		if !ok {
			break
		}
		cells = append(cells, cell)
	}
	if len(cells) != total {
		t.Fatalf("took %d cells, want %d", len(cells), total)
	}
	if c.finished() {
		t.Fatal("finished with every cell taken but none recorded")
	}
	// A dead runner's cell must be taken and recorded again before the
	// sweep counts as finished.
	c.requeue(cells[0])
	for range cells[1:] {
		c.record()
	}
	if c.finished() {
		t.Fatal("finished with a requeued cell outstanding")
	}
	if cell, ok := c.take(); !ok || cell != cells[0] {
		t.Fatalf("retake = %d ok=%v, want the requeued cell %d", cell, ok, cells[0])
	}
	if c.finished() {
		t.Fatal("finished before the retaken cell was recorded")
	}
	c.record()
	if !c.finished() {
		t.Fatal("not finished after every cell was recorded")
	}
}

// TestClassLatencyHistogramsResolveTheirRange feeds each request class
// latencies typical of it. A percentile reads its bucket's upper edge,
// so a histogram that resolves the class reads each one back within a
// factor of two.
func TestClassLatencyHistogramsResolveTheirRange(t *testing.T) {
	s := startServer(t, Config{})
	for _, c := range []struct {
		class    string
		p50, p99 time.Duration
	}{
		{"solve", 7 * time.Microsecond, 60 * time.Microsecond},
		{"gain", 12 * time.Microsecond, 90 * time.Microsecond},
		{"sensitivity", 4 * time.Microsecond, 40 * time.Microsecond},
		{"sweep", 1050 * time.Millisecond, 20 * time.Second},
	} {
		cm := s.classes[c.class]
		for i := 0; i < 98; i++ {
			cm.observe(c.p50, false)
		}
		cm.observe(c.p99, false)
		cm.observe(c.p99, false)
		p50, p99 := cm.percentiles()
		for _, q := range []struct {
			name string
			got  float64
			want time.Duration
		}{{"p50", p50, c.p50}, {"p99", p99, c.p99}} {
			want := float64(q.want.Microseconds())
			if q.got < want || q.got > 2*want {
				t.Errorf("%s %s = %g µs, want %g–%g µs", c.class, q.name, q.got, want, 2*want)
			}
		}
	}
}

// TestMetricsEndpointIsValidExposition scrapes the live /metrics after
// real traffic and runs the exposition-format validator over it.
func TestMetricsEndpointIsValidExposition(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/gain", GainRequest{ConfigSpec: ConfigSpec{Contexts: 2}, Nodes: 64}, nil)
	if _, status := postSweep(t, base, SweepRequest{Spec: testSweepSpec()}); status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"serve_solve_requests 2",
		// The two identical solves are one miss and one hit; /v1/gain
		// solves directly and leaves the cache alone.
		"\nlocality_serve_cache_hits 1\n",
		"\nlocality_serve_cache_misses 1\n",
		"serve_cache_capacity",
		"serve_sweep_rows 4",
		"serve_solve_latency_micros_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestHealthzDegradesOnStaleWorker: a worker that registers and then
// never heartbeats must flip /healthz to 503 once the staleness window
// passes, and its removal restores 200.
func TestHealthzDegradesOnStaleWorker(t *testing.T) {
	s := startServer(t, Config{StaleAfter: 50 * time.Millisecond})
	base := "http://" + s.Addr()

	get := func() (int, obs.Health) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var h obs.Health
		json.NewDecoder(resp.Body).Decode(&h)
		return resp.StatusCode, h
	}

	if status, h := get(); status != http.StatusOK || !h.Healthy() {
		t.Fatalf("empty registry: healthz = %d %+v, want 200 ok", status, h)
	}
	postJSON(t, base+"/v1/workers/register", workerRegistration{ID: "zombie", Addr: "http://127.0.0.1:1"}, nil)
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("fresh worker: healthz = %d, want 200", status)
	}
	time.Sleep(80 * time.Millisecond)
	status, h := get()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("stale worker: healthz = %d %+v, want 503", status, h)
	}
	if !strings.Contains(h.Reason, "zombie") {
		t.Fatalf("healthz reason = %q, want the stale worker named", h.Reason)
	}
	s.workers.remove("zombie")
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("after removal: healthz = %d, want 200", status)
	}
}

// TestHeartbeatKeepsWorkerFresh: a real worker's loop keeps it out of
// the stale set well past the staleness window.
func TestHeartbeatKeepsWorkerFresh(t *testing.T) {
	s := startServer(t, Config{StaleAfter: 300 * time.Millisecond})
	w := NewWorker("beater", "http://"+s.Addr())
	w.HeartbeatEvery = 50 * time.Millisecond
	if err := w.Start("127.0.0.1:0", ""); err != nil {
		t.Fatalf("worker start: %v", err)
	}
	defer w.Close()
	time.Sleep(600 * time.Millisecond)
	if _, stale := s.workers.snapshot(); len(stale) != 0 {
		t.Fatalf("heartbeating worker went stale: %v", stale)
	}
}

func TestStatuszReportsState(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)

	resp, err := http.Get(base + "/statusz?format=json")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	defer resp.Body.Close()
	var st serverStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if st.Requests["solve"] != 1 {
		t.Fatalf("statusz solve requests = %d, want 1", st.Requests["solve"])
	}
	if st.Cache.Capacity == 0 {
		t.Fatalf("statusz cache capacity = 0")
	}
	if !st.Health.Healthy() {
		t.Fatalf("statusz health = %+v", st.Health)
	}
}

// TestServerWritesClassLedgerRows: Close flushes one ledger row per
// request class with latency percentiles.
func TestServerWritesClassLedgerRows(t *testing.T) {
	ledger := t.TempDir() + "/ledger.jsonl"
	s := startServer(t, Config{BatchWindow: -1, Ledger: ledger})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 3}}, nil)
	postJSON(t, base+"/v1/sensitivity", SensitivityRequest{}, nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := obs.ReadLedger(ledger)
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	byLabel := make(map[string]obs.RunRecord)
	for _, r := range recs {
		byLabel[r.Label] = r
	}
	solve, ok := byLabel["class:solve"]
	if !ok {
		t.Fatalf("no class:solve ledger row in %+v", byLabel)
	}
	if solve.Requests != 2 || solve.Cmd != "modelserver" {
		t.Fatalf("solve row = %+v, want 2 requests from modelserver", solve)
	}
	if solve.P99Micros < solve.P50Micros {
		t.Fatalf("solve row percentiles inverted: p50=%g p99=%g", solve.P50Micros, solve.P99Micros)
	}
	if _, ok := byLabel["class:sweep"]; ok {
		t.Fatalf("class:sweep row written with zero sweep requests")
	}
}
