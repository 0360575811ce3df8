// Command modelworker executes sweep cells on behalf of a
// modelserver. It registers itself, heartbeats, and serves POST /run
// requests that carry a sweep grid spec plus a cell range; the server
// hands out cells, requeues them on death, and streams results in
// order.
//
//	modelworker -server http://localhost:8090 -id worker-1
//
// Workers are stateless: killing one mid-sweep loses nothing (the
// server requeues its outstanding cell) and restarting one just
// re-registers. Run as many as the host has cores to spare.
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
	server := flag.String("server", "http://localhost:8090", "modelserver base URL")
	id := flag.String("id", "", "worker ID (default worker-<pid>)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address for /run")
	advertise := flag.String("advertise-host", "", "host to advertise to the server (default 127.0.0.1)")
	beat := flag.Duration("heartbeat", 2*time.Second, "heartbeat period")
	flag.Parse()

	wid := *id
	if wid == "" {
		wid = fmt.Sprintf("worker-%d", os.Getpid())
	}
	w := serve.NewWorker(wid, *server)
	w.HeartbeatEvery = *beat
	if err := w.Start(*addr, *advertise); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("modelworker %s serving on %s for %s\n", wid, w.Addr(), *server)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("modelworker: shutting down")
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
