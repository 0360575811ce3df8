package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"locality/internal/engine"
	"locality/internal/machine"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints boots the server on an ephemeral port, publishes
// a snapshot, and checks each endpoint's happy path.
func TestServerEndpoints(t *testing.T) {
	b := NewBridge()
	srv, err := NewServer("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Pre-publish: healthz ok, statusz admits there is no snapshot.
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("pre-publish /healthz = %d %q", code, body)
	}
	if _, body := get(t, base+"/statusz"); !strings.Contains(body, "no snapshot") {
		t.Fatalf("pre-publish /statusz missing placeholder: %q", body)
	}

	b.Publish(Sample{Label: "srv-test", Cycle: 777, Target: 1000, Metrics: goldenBridge().Snapshot().Metrics})
	b.PublishGrid(engine.Progress{Done: 3, Failed: 1, Total: 9, Elapsed: 2 * time.Second, Remaining: 4 * time.Second})

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, `locality_run_info{label="srv-test"} 1`) {
		t.Fatalf("/metrics missing run_info:\n%s", body)
	}
	if err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}

	code, body = get(t, base+"/statusz")
	if code != http.StatusOK || !strings.Contains(body, "srv-test") || !strings.Contains(body, "cycle 777") {
		t.Fatalf("/statusz = %d %q", code, body)
	}
	if !strings.Contains(body, "Bottleneck analysis") {
		t.Fatalf("/statusz missing embedded bottleneck report:\n%s", body)
	}

	code, body = get(t, base+"/statusz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/statusz?format=json = %d", code)
	}
	var st struct {
		Health struct {
			Status string `json:"status"`
		} `json:"health"`
		Label string `json:"label"`
		Cycle int64  `json:"cycle"`
		Grid  *struct {
			Total int `json:"total"`
		} `json:"grid"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if st.Health.Status != "ok" || st.Label != "srv-test" || st.Cycle != 777 || st.Grid == nil || st.Grid.Total != 9 {
		t.Fatalf("statusz JSON content: %+v", st)
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestHealthzDegradesOnStall is the end-to-end watchdog story: a
// machine makes no progress for longer than its watchdog bound, the
// watchdog reports it, the run loop records the failure on the bridge,
// and /healthz flips to 503 with the stall in the reason.
func TestHealthzDegradesOnStall(t *testing.T) {
	b := NewBridge()
	srv, err := NewServer("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := testMachine(t, func(cfg *machine.Config) {
		// A bound below every transaction's latency: the first
		// transaction outlives it and the watchdog trips.
		cfg.Watchdog = machine.Watchdog{StallCycles: 20}
		cfg.Observer = b.MachineObserver("stall-test", 50000)
	})
	_, err = m.Execute(context.Background(), machine.RunSpec{Warmup: 1000, Window: 49000})
	if err == nil {
		t.Fatal("machine finished without stalling under a 20-cycle bound")
	}
	if !errors.Is(err, machine.ErrStalled) {
		t.Fatalf("expected a stall, got %v", err)
	}
	if h := b.Health(); !h.Healthy() || b.Snapshot() == nil {
		t.Fatalf("health before Fail = %+v (snapshot %v), want ok after publishing", h, b.Snapshot())
	}
	b.Fail("machine", err)

	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after stall = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "progress") {
		t.Fatalf("/healthz reason does not mention the stall: %q", body)
	}
	if _, mbody := get(t, "http://"+srv.Addr()+"/metrics"); !strings.Contains(mbody, "locality_obs_healthy 0") {
		t.Fatalf("/metrics does not reflect degradation:\n%s", mbody)
	}
}
