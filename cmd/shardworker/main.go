// Command shardworker runs one remote shard executor for the distributed
// search: it listens for a coordinator (or dials out to one), builds the
// super-network the coordinator describes in its handshake, and then
// executes shard steps — weight sync in, loss and gradient bits out —
// until it is stopped.
//
// Usage:
//
//	shardworker -listen :7070              # serve coordinators that dial in
//	shardworker -coordinator host:7070     # dial out to a listening coordinator
//
// On SIGTERM or SIGINT the worker drains gracefully: it stops accepting
// connections, lets any in-flight step finish and flush its response, and
// exits 0. A drained worker never leaves the coordinator with a torn
// step — the coordinator sees a closed connection between requests and
// either redials (getting a full weight sync) or degrades the run.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"h2onas/internal/shardrpc"
	"h2onas/internal/tensor"
)

func main() {
	listen := flag.String("listen", "", "address to serve coordinators on, e.g. :7070")
	coordinator := flag.String("coordinator", "", "coordinator address to dial out to (instead of -listen)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "connection timeout for -coordinator")
	flag.Parse()

	if (*listen == "") == (*coordinator == "") {
		fmt.Fprintln(os.Stderr, "exactly one of -listen or -coordinator is required")
		os.Exit(2)
	}

	w := shardrpc.NewWorker()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		log.Printf("shardworker: %v — draining", s)
		w.Drain()
	}()

	if *coordinator != "" {
		if err := w.DialAndServe(*coordinator, *dialTimeout); err != nil {
			log.Fatalf("shardworker: %v", err)
		}
		return
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("shardworker: %v", err)
	}
	log.Printf("shardworker: serving on %s, kernel backend %s", lis.Addr(), tensor.KernelBackend())
	if err := w.Serve(lis); err != nil {
		log.Fatalf("shardworker: %v", err)
	}
	w.Wait()
	log.Printf("shardworker: drained")
}
