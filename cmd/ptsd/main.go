// Command ptsd is the solver-as-a-service daemon: one long-lived
// worker fleet multiplexing many concurrent parallel-tabu-search jobs,
// fronted by an HTTP API.
//
// Start the daemon, then point workers at its fleet address:
//
//	ptsd -fleet :9017 -http :8080
//	pts -worker localhost:9017 -jobs 0       # as many as you like
//
// Submit and watch jobs over HTTP:
//
//	curl -X POST localhost:8080/v1/jobs -d '{
//	  "problem": {"kind": "placement", "circuit": "c532"},
//	  "workers": 2,
//	  "config": {"seed": 7, "half_sync": false}
//	}'
//	curl localhost:8080/v1/jobs                # list
//	curl localhost:8080/v1/jobs/j1             # status + result
//	curl -N localhost:8080/v1/jobs/j1/events   # SSE: one event per global iteration
//	curl -X DELETE localhost:8080/v1/jobs/j1   # cancel at best-so-far
//	curl localhost:8080/v1/fleet               # worker registry
//
// Jobs queue FIFO behind the fleet's capacity; each running job leases
// its own disjoint set of workers. On SIGTERM/SIGINT the daemon drains:
// queued jobs are cancelled, running jobs stop at their next protocol
// boundary and report their best-so-far, then the process exits.
//
// With -state-dir the daemon is crash-only: job specs, lifecycle and
// results are journaled to the directory, and a restarted ptsd over the
// same directory re-serves completed results, re-admits queued jobs,
// and resumes interrupted runs from their last synchronization barrier
// — kill -9 loses at most the tail of a round.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pts"
)

// HTTP server timeouts: a client must send its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		fleetAddr    = flag.String("fleet", ":9017", "TCP address worker daemons dial")
		httpAddr     = flag.String("http", ":8080", "HTTP API listen address")
		queueDepth   = flag.Int("queue", 0, "max queued jobs behind the running ones (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs to stop at a boundary")
		stateDir     = flag.String("state-dir", "", "directory for durable job state; restarts recover jobs from it (empty = in-memory only)")
		quiet        = flag.Bool("quiet", false, "suppress lifecycle log lines")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	var st pts.Store
	if *stateDir != "" {
		var err error
		if st, err = pts.NewFileStore(*stateDir); err != nil {
			fatal(err)
		}
	}

	srv, err := pts.ListenServer(pts.ServerOptions{
		FleetAddr:  *fleetAddr,
		QueueDepth: *queueDepth,
		Store:      st,
		Logf:       logf,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	// No WriteTimeout: it would cut the long-lived SSE event streams.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	fmt.Printf("ptsd: fleet on %s, http on %s\n", srv.FleetAddr(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		fatal(fmt.Errorf("http: %w", err))
	}

	fmt.Println("ptsd: draining (running jobs stop at their next boundary)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "ptsd:", err)
	}
	_ = hs.Shutdown(dctx)
	fmt.Println("ptsd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptsd:", err)
	os.Exit(1)
}
