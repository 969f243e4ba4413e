// Command superproxy runs the real-socket Super Proxy: an HTTP
// CONNECT proxy that resolves targets through a configurable resolver
// (the exit node's "default DNS") and reports the X-Luminati-style
// timing headers the measurement methodology consumes.
//
// Usage:
//
//	superproxy -listen 127.0.0.1:24000 -resolver 127.0.0.1:5353
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cmdconfig"
	"repro/internal/obs"
	"repro/internal/proxynet"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:24000", "CONNECT proxy listen address")
	resolver := flag.String("resolver", "", "DNS server for target resolution (host:port); empty = IP literals only")
	delay := flag.Duration("processing-delay", 0, "artificial proxy processing delay (exercises t_BrightData accounting)")
	handshakeTimeout := flag.Duration("handshake-timeout", 30*time.Second, "deadline for the whole CONNECT handshake; stalled clients are reaped")
	maxHeaderBytes := flag.Int("max-header-bytes", 16<<10, "cap on buffered CONNECT request headers before answering 431")
	debug := cmdconfig.DebugFlag()
	flag.Parse()

	reg := obs.NewRegistry()
	proxy := &proxynet.RealProxy{
		ResolverAddr:     *resolver,
		ProcessingDelay:  *delay,
		Obs:              reg,
		HandshakeTimeout: *handshakeTimeout,
		MaxHeaderBytes:   *maxHeaderBytes,
	}
	if err := proxy.ListenAndServe(*listen); err != nil {
		log.Fatalf("superproxy: %v", err)
	}
	fmt.Printf("superproxy: CONNECT proxy on %s (resolver %q)\n", proxy.Addr(), *resolver)
	fmt.Printf("superproxy: headers: %s, %s\n", proxynet.TunTimelineHeader, proxynet.TimelineHeader)

	dbg, err := cmdconfig.Debug("superproxy:", *debug, reg)
	if err != nil {
		log.Fatalf("superproxy: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// The proxy gets 5 s to wind its tunnels down; the debug listener,
	// its context ended by then, closes at once.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	go func() {
		proxy.Close()
		cancel()
	}()
	<-ctx.Done()
	dbg.Shutdown(ctx)
}
