package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
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
		// Refused up front, not run as one error row per cell.
		{"negative sweep ratio", http.MethodPost, "/v1/sweep",
			`{"k":4,"n":2,"contexts":[1],"mappings":"identity","window":100,"ratio":-1}`,
			http.StatusBadRequest, "clock ratio -1"},
		{"sweep machine over the node cap", http.MethodPost, "/v1/sweep",
			`{"k":1025,"n":2,"contexts":[1],"mappings":"identity","window":100}`,
			http.StatusBadRequest, "nodes"},
		{"sweep context count over the cap", http.MethodPost, "/v1/sweep",
			`{"k":4,"n":1,"contexts":[1152921504606846977],"mappings":"identity","window":1}`,
			http.StatusBadRequest, "context count"},
		{"sweep state words over the cap", http.MethodPost, "/v1/sweep",
			`{"k":1024,"n":2,"contexts":[2],"mappings":"identity","window":1}`,
			http.StatusBadRequest, "state words"},
		// Zero selects the default for these fields. A negative value
		// would otherwise be served as the default, or by
		// /v1/sensitivity as a negative sensitivity.
		{"negative grain factor", http.MethodPost, "/v1/solve", `{"grain_factor":-3}`, http.StatusBadRequest, "grain_factor"},
		{"negative network speed", http.MethodPost, "/v1/gain", `{"nodes":512,"network_speed":-2}`, http.StatusBadRequest, "network_speed"},
		{"negative messages per transaction", http.MethodPost, "/v1/sensitivity", `{"messages_per":-3.2}`, http.StatusBadRequest, "messages_per"},
		{"negative critical path", http.MethodPost, "/v1/sensitivity", `{"critical_path":-1}`, http.StatusBadRequest, "critical_path"},
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
		met, err := g.Run(context.Background(), i)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		b.WriteString(strings.Join(g.FormatRow(i, met), ","))
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

// TestSweepMatchesDirectRun: the served sweep streams the bytes a
// direct run of the same grid produces.
func TestSweepMatchesDirectRun(t *testing.T) {
	s := startServer(t, Config{})
	got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: testSweepSpec()})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	if want := localCSV(t, testSweepSpec()); got != want {
		t.Errorf("served sweep differs from direct run\nserved:\n%s\ndirect:\n%s", got, want)
	}
}

// TestSweepEmptyWindowServesErrorRows: a cell whose window measures no
// traffic streams as an error row, as cmd/sweep writes it, and the
// sweep counts as failed.
func TestSweepEmptyWindowServesErrorRows(t *testing.T) {
	s := startServer(t, Config{})
	spec := sweepgrid.Spec{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity,random:1", Warmup: 1, Window: 1}
	got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: spec})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("served %d lines, want comment, header and 2 rows:\n%s", len(lines), got)
	}
	for _, row := range lines[2:] {
		if !strings.Contains(row, ",error=sweepgrid: no traffic measured") {
			t.Errorf("row %q, want a no-traffic error row", row)
		}
	}
	if n := s.classes["sweep"].errors.Load(); n != 1 {
		t.Errorf("sweep class recorded %d failed requests, want 1", n)
	}
}

// TestSweepClientDisconnectEndsSweep: a client that reads the first row
// and hangs up ends the sweep. The handler cancels the cells still
// running, returns and records a failed sweep request long before the
// grid could have finished.
func TestSweepClientDisconnectEndsSweep(t *testing.T) {
	s := startServer(t, Config{})
	spec := testSweepSpec()
	spec.Mappings = "identity"
	spec.Contexts = make([]int, 400)
	for i := range spec.Contexts {
		spec.Contexts[i] = 1
	}
	spec.Warmup, spec.Window = 0, 20000
	body, err := json.Marshal(SweepRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	resp, err := http.Post("http://"+s.Addr()+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	for _, what := range []string{"kernel comment", "header", "first row"} {
		if _, err := br.ReadString('\n'); err != nil {
			resp.Body.Close()
			t.Fatalf("reading the %s: %v", what, err)
		}
	}
	firstRow := time.Since(t0)
	// Closing an unread body closes the connection.
	resp.Body.Close()
	left := time.Now()

	// The first row took at least one cell time, and the grid needs
	// len(Contexts)/GOMAXPROCS of them; allow a tenth of that.
	budget := firstRow * time.Duration(len(spec.Contexts)/runtime.GOMAXPROCS(0)) / 10
	deadline := time.Now().Add(budget)
	sweeps := s.classes["sweep"]
	for sweeps.errors.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no failed sweep recorded %v after the client left (first row took %v, %d sweep requests recorded)",
				budget, firstRow, sweeps.requests.Load())
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("first row after %v; sweep ended %v after the client left (budget %v)", firstRow, time.Since(left), budget)
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
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hz.StatusCode)
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

// TestCloseReportsLedgerErrors: a ledger that cannot be written fails
// Close, naming the path, rather than losing its rows silently.
func TestCloseReportsLedgerErrors(t *testing.T) {
	ledger := t.TempDir() + "/missing/ledger.jsonl"
	s := startServer(t, Config{BatchWindow: -1, Ledger: ledger})
	postJSON(t, "http://"+s.Addr()+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), ledger) {
		t.Fatalf("Close = %v, want an error naming %s", err, ledger)
	}
}
