// Command modelserver serves the analytic combined model over
// HTTP/JSON: point queries (/v1/solve, /v1/gain, /v1/sensitivity)
// answered inline, /v1/solve through a coalescing batcher and a bounded
// solve cache, and grid queries (/v1/sweep) run in-process on
// GOMAXPROCS experiment-engine workers, as cmd/sweep runs them, with
// the CSV streamed back. Observability rides along on /metrics
// (Prometheus), /statusz, and /healthz.
//
//	modelserver -addr :8090 -ledger runs.jsonl
//
//	curl -s localhost:8090/v1/solve -d '{"contexts":4,"d":2.5}'
//	curl -s localhost:8090/v1/gain -d '{"contexts":2,"nodes":512}'
//	curl -s localhost:8090/v1/sweep -d '{"k":4,"n":2,"contexts":[1,2],
//	    "mappings":"identity,random:1","warmup":500,"window":1000}'
//
// The process runs until SIGINT/SIGTERM, then flushes one latency row
// per request class (count, p50, p99) to the ledger. It exits 1 if any
// ledger append failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"locality/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	ledger := flag.String("ledger", "", "append per-class latency rows to this JSONL run ledger on shutdown")
	window := flag.Duration("batch-window", 2*time.Millisecond, "point-query micro-batch window (0 disables)")
	flag.Parse()

	cfg := serve.Config{
		Addr:        *addr,
		Ledger:      *ledger,
		BatchWindow: *window,
	}
	if *window == 0 {
		cfg.BatchWindow = -1 // serve.Config uses negative for "disabled"
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("modelserver listening on %s\n", s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("modelserver: shutting down")
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "modelserver:", err)
		os.Exit(1)
	}
}
