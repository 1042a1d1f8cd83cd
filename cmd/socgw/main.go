// Command socgw is the fleet gateway: socgw = serve front + fleet
// executor. The front is the same HTTP/JSON surface, job table and
// result cache a single socd runs, so repeats are answered at the door;
// the executor shards admitted jobs across N socd workers by content
// hash (rendezvous hashing, so a spec keeps landing on the worker whose
// cache holds it) and fails jobs over when a worker dies mid-run.
//
//	socgw                                  # clients on :9190, workers on :9191
//	socgw -addr :0 -worker-addr :0         # ephemeral ports (printed on stdout)
//	socgw -dead-after 5s
//
// Workers join with: socd -gateway <worker-addr> -name <name>.
// Clients use cmd/socctl exactly as against a lone socd.
//
// Stdout's first two lines are machine-readable for wrapper scripts:
//
//	listening on <client-addr>
//	workers on <worker-addr>
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":9190", "client HTTP listen address (use :0 for an ephemeral port)")
	workerAddr := flag.String("worker-addr", ":9191", "worker wire-protocol listen address")
	deadAfter := flag.Duration("dead-after", 5*time.Second, "silence window before a worker is declared dead")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget for in-flight jobs")
	flag.Parse()

	logger := log.New(os.Stderr, "socgw: ", log.LstdFlags)
	gw := fleet.NewGateway(fleet.GatewayConfig{
		DeadAfter: *deadAfter,
		Logf:      logger.Printf,
	})

	clientLn, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	workerLn, err := net.Listen("tcp", *workerAddr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *workerAddr, err)
	}
	// Both bound addresses go to stdout first so wrappers (fleet-smoke,
	// soak) can discover ephemeral ports; the order is part of the
	// contract.
	fmt.Printf("listening on %s\n", clientLn.Addr())
	fmt.Printf("workers on %s\n", workerLn.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: gw.Handler()}
	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.Serve(clientLn) }()
	go func() { errCh <- gw.ServeWorkers(workerLn) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v: draining (budget %v)", sig, *drainTimeout)
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	// Drain order: stop admitting (new submissions 503), close the worker
	// listener so no new registrations race teardown, wait for in-flight
	// jobs to finish on their workers, then close the client listener.
	gw.BeginDrain()
	workerLn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		logger.Printf("drain: gave up on stragglers: %v", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("drained, exiting")
}
