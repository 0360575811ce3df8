package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/core"
	"locality/internal/serve"
)

// serveP shapes the serve-solve traffic.
type serveP struct {
	// Rate is the open-loop arrival rate of phase A, requests per second:
	// about half the ~845 req/s the closed loop of phase B sustains on a
	// 2-CPU host, so the server is loaded but has no growing backlog.
	Rate float64
	// HotConfigs configurations take HotFrac of the requests; the rest
	// are configurations no earlier request asked for. The mix is an
	// assumption, not taken from recorded traffic: no request log exists
	// to draw it from. It sets the cache hit ratio, and through it both
	// end-to-end serving metrics, so revisit it once traffic is recorded.
	HotConfigs int
	HotFrac    float64
	// OpenShare is phase A's share of the measurement time; phase B, the
	// closed loop, takes the rest.
	OpenShare float64
}

func serveParams(short bool) any {
	return serveP{Rate: 400, HotConfigs: 32, HotFrac: 0.9, OpenShare: 2.0 / 3}
}

// serveReq is one /v1/solve request and the solution a direct
// core.Config.Solve gives for it.
type serveReq struct {
	body []byte
	want core.Solution
}

type serveSession struct {
	e      *env
	p      serveP
	srv    *serve.Server
	tr     *http.Transport
	client *http.Client
	base   string
	hot    []serveReq
	// pre holds the first requests of the seeded sequence, generated at
	// set-up: as many as the run's open-loop phases send.
	pre []serveReq
	// next is the index of the next request in the seeded sequence; it
	// runs on across both halves of a traced run, so cold configurations
	// stay unique.
	next atomic.Int64
	// dials counts the connections the client opened.
	dials atomic.Int64
}

// setupServe starts an in-process model server with its defaults (the
// 2 ms batch window and the default cache are what gets measured),
// builds the client, and generates the open-loop requests.
func setupServe(e *env) (session, error) {
	p := serveParams(e.short).(serveP)
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	s := &serveSession{e: e, p: p, srv: srv, base: "http://" + srv.Addr()}
	var dialer net.Dialer
	s.tr = &http.Transport{
		MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	s.client = &http.Client{Transport: s.tr, Timeout: 10 * time.Second}
	for j := 0; j < p.HotConfigs; j++ {
		r, err := s.makeRequest(mix(uint64(e.seed), uint64(j)|1<<62))
		if err != nil {
			s.close()
			return nil, err
		}
		s.hot = append(s.hot, r)
	}
	s.pre = make([]serveReq, int(p.Rate*p.OpenShare*e.seconds.Seconds()))
	for i := range s.pre {
		if s.pre[i], err = s.generate(int64(i)); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *serveSession) close() {
	s.srv.Close()
	s.tr.CloseIdleConnections()
}

// mix is splitmix64 over a seed and an index: cheap, deterministic
// per-request randomness.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// makeRequest derives a configuration from h: context count, distance,
// and preset all vary, so hot and cold configurations are spread over
// the model's operating range.
func (s *serveSession) makeRequest(h uint64) (serveReq, error) {
	spec := serve.ConfigSpec{
		Contexts: 1 + int(h%4),
		D:        1 + 7*float64(h>>11)/(1<<53),
	}
	if h&16 != 0 {
		spec.Preset = "alewife-large"
	}
	cfg, err := spec.Resolve()
	if err != nil {
		return serveReq{}, err
	}
	want, err := cfg.Solve()
	if err != nil {
		return serveReq{}, err
	}
	body, err := json.Marshal(serve.SolveRequest{ConfigSpec: spec})
	return serveReq{body: body, want: want}, err
}

// request is request i of the seeded sequence.
func (s *serveSession) request(i int64) (serveReq, error) {
	if i < int64(len(s.pre)) {
		return s.pre[i], nil
	}
	return s.generate(i)
}

// generate builds request i: a hot configuration with probability
// HotFrac, else a configuration of its own.
func (s *serveSession) generate(i int64) (serveReq, error) {
	h := mix(uint64(s.e.seed), uint64(i))
	if float64(h>>11)/(1<<53) < s.p.HotFrac {
		return s.hot[mix(h, 1)%uint64(len(s.hot))], nil
	}
	return s.makeRequest(mix(h, 2))
}

func (s *serveSession) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// solve posts one request and checks the served solution against the
// direct solve.
func (s *serveSession) solve(r serveReq) error {
	resp, err := s.client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var got serve.SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Solution != r.want {
		return fmt.Errorf("served solution differs from core.Config.Solve for %s", r.body)
	}
	return nil
}

// measure runs phase A, an open loop at Rate with each request timed
// from when it was due, then phase B, a closed loop of back-to-back
// requests from every client.
func (s *serveSession) measure(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	smp := &sample{layers: map[string]float64{}}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		smp.failed++
		smp.note(err.Error())
		mu.Unlock()
	}
	// One concurrent request per client opens every keep-alive
	// connection before the clock starts.
	errs := make(chan error, s.e.workers)
	for c := 0; c < s.e.workers; c++ {
		go func() {
			_, err := s.get("/healthz")
			errs <- err
		}()
	}
	for c := 0; c < s.e.workers; c++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	var before map[string]float64
	var err error
	if tr != nil {
		if before, err = s.scrape(); err != nil {
			return nil, err
		}
	}

	// Phase A. Requests are ready before the clock starts; the queue
	// holds every request, so the generator never waits on busy clients
	// and its lateness is its own.
	openD := time.Duration(float64(d) * s.p.OpenShare)
	n := max(1, int(s.p.Rate*openD.Seconds()))
	first := s.next.Add(int64(n)) - int64(n)
	reqs := make([]serveReq, n)
	for i := range reqs {
		if reqs[i], err = s.request(first + int64(i)); err != nil {
			return nil, err
		}
	}
	period := time.Duration(float64(time.Second) / s.p.Rate)
	queue := make(chan int, n)
	late := make([]time.Duration, n)
	lat := make([]time.Duration, n)
	phase := tr.begin("phase.open", 0, 0)
	start := time.Now()
	go func() {
		defer close(queue)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * period)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			late[i] = time.Since(due)
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < s.e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sp := tr.begin("http.solve", phase, first+int64(i))
				if err := s.solve(reqs[i]); err != nil {
					fail(err)
				}
				tr.end(sp)
				lat[i] = time.Since(start.Add(time.Duration(i) * period))
			}
		}()
	}
	wg.Wait()
	tr.end(phase)
	smp.ops = lat
	smp.attempted += n

	// Phase B.
	phase = tr.begin("phase.closed", 0, 0)
	var done atomic.Int64
	start = time.Now()
	deadline := start.Add(d - openD)
	for c := 0; c < s.e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := s.next.Add(1) - 1
				r, err := s.request(i)
				if err == nil {
					sp := tr.begin("http.solve", phase, i)
					err = s.solve(r)
					tr.end(sp)
				}
				if err != nil {
					fail(err)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	tr.end(phase)
	smp.attempted += int(done.Load())
	smp.workPerS = float64(done.Load()) / time.Since(start).Seconds()
	smp.heapMB = liveHeapMB()

	if tr == nil {
		smp.layers["serve.solve_p99_ms"] = quantile(durationsMS(lat), 0.99)
		smp.layers["serve.generator_late_p99_ms"] = quantile(durationsMS(late), 0.99)
		return smp, nil
	}
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("locality_serve_cache_hits"), delta("locality_serve_cache_misses")
	smp.layers["core.cache_hit_ratio"] = hits / (hits + misses)
	smp.layers["serve.batches"] = delta("locality_serve_batches")
	smp.layers["serve.coalesced_ratio"] = delta("locality_serve_batch_coalesced") / delta("locality_serve_solve_requests")
	var healthz []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := s.get("/healthz"); err != nil {
			return nil, err
		}
		healthz = append(healthz, time.Since(t0))
	}
	smp.layers["serve.healthz_p50_ms"] = quantile(durationsMS(healthz), 0.5)
	smp.layers["core.solve_cold_ns"], smp.layers["core.cache_hit_ns"] = solveLoops(s.e.seed)
	return smp, nil
}

// solveLoops times the model with no server around it: a cold
// core.Config.Solve over distinct configurations, and a core.SolveCache
// hit on one configuration.
func solveLoops(seed int64) (coldNS, hitNS float64) {
	const cold, hits = 2000, 200_000
	cfgs := make([]core.Config, cold)
	for j := range cfgs {
		h := mix(uint64(seed), uint64(j)|1<<61)
		cfgs[j] = core.Alewife(1+int(h%4), 1+7*float64(h>>11)/(1<<53))
	}
	t0 := time.Now()
	for _, c := range cfgs {
		if _, err := c.Solve(); err != nil {
			return 0, 0
		}
	}
	coldNS = float64(time.Since(t0).Nanoseconds()) / cold
	sc := core.NewSolveCache(0)
	sc.Solve(cfgs[0])
	t0 = time.Now()
	for i := 0; i < hits; i++ {
		sc.Solve(cfgs[0])
	}
	return coldNS, float64(time.Since(t0).Nanoseconds()) / hits
}

// scrape reads the server's /metrics exposition into name -> value,
// summing series that differ only in labels.
func (s *serveSession) scrape() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}
