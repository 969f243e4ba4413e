// Command authdns runs the authoritative name server for the
// measurement zone (the paper's BIND9 on a.com): a wildcard A record
// answers every <UUID> cache-busting subdomain.
//
// Usage:
//
//	authdns -listen 127.0.0.1:5300 -zone a.com -addr 127.0.0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5300", "UDP+TCP listen address")
	zoneName := flag.String("zone", "a.com", "zone origin")
	target := flag.String("addr", "127.0.0.1", "A record target for the wildcard")
	zoneFile := flag.String("zonefile", "", "BIND-style master file to load instead of the built-in zone")
	secondary := flag.String("secondary", "", "act as a secondary: AXFR the zone from this primary (host:port)")
	listeners := flag.Int("listeners", 1, "parallel UDP listener shards (SO_REUSEPORT where available)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	maxInflight := flag.Int("max-inflight", 0, "admission budget: max queries in flight before shedding SERVFAIL (0 = unlimited)")
	maxConns := flag.Int("max-conns", 0, "max concurrent TCP connections (0 = unlimited)")
	rrl := flag.Float64("rrl", 0, "UDP response rate limit per source prefix, responses/sec (0 = off)")
	rrlBurst := flag.Float64("rrl-burst", 0, "RRL token-bucket burst (0 = same as -rrl)")
	rrlSlip := flag.Int("rrl-slip", 0, "answer every Nth rate-limited query with TC=1 (0 = default 2, negative = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response TCP write deadline (0 = idle timeout, negative = none)")
	maxFrame := flag.Int("max-frame", 0, "max TCP request frame bytes; oversize closes the connection (0 = 64KiB-1)")
	flag.Parse()

	origin := dnswire.NewName(*zoneName)
	var zone *authserver.Zone
	if *secondary != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		z, err := authserver.RequestAXFR(ctx, *secondary, origin)
		cancel()
		if err != nil {
			log.Fatalf("authdns: zone transfer from %s: %v", *secondary, err)
		}
		zone = z
	} else if *zoneFile != "" {
		f, err := os.Open(*zoneFile)
		if err != nil {
			log.Fatalf("authdns: %v", err)
		}
		zone, err = authserver.ParseZoneFile(f, origin)
		f.Close()
		if err != nil {
			log.Fatalf("authdns: %v", err)
		}
		origin = zone.Origin()
	} else {
		addr, err := netip.ParseAddr(*target)
		if err != nil {
			log.Fatalf("authdns: bad -addr: %v", err)
		}
		zone = authserver.NewZone(origin)
		if err := zone.SetSOA(dnswire.NewName("ns1."+*zoneName), dnswire.NewName("hostmaster."+*zoneName), 2021042901); err != nil {
			log.Fatalf("authdns: %v", err)
		}
		records := []dnswire.ResourceRecord{
			{Name: origin, TTL: 3600, Data: dnswire.NSRecord{NS: dnswire.NewName("ns1." + *zoneName)}},
			{Name: dnswire.NewName("ns1." + *zoneName), TTL: 3600, Data: dnswire.ARecord{Addr: addr}},
			{Name: dnswire.NewName("www." + *zoneName), TTL: 300, Data: dnswire.ARecord{Addr: addr}},
			{Name: dnswire.NewName("*." + *zoneName), TTL: 60, Data: dnswire.ARecord{Addr: addr}},
		}
		for _, rr := range records {
			if err := zone.Add(rr); err != nil {
				log.Fatalf("authdns: %v", err)
			}
		}
	}

	srv := authserver.NewServer(zone)
	srv.Logger = log.New(os.Stderr, "authdns: ", log.LstdFlags)
	srv.Listeners = *listeners
	srv.Protect = serve.Protection{
		MaxInflight:        *maxInflight,
		RateLimit:          *rrl,
		RateBurst:          *rrlBurst,
		RateSlip:           *rrlSlip,
		MaxConns:           *maxConns,
		MaxFrameBytes:      *maxFrame,
		StreamWriteTimeout: *writeTimeout,
	}
	if err := srv.ListenAndServe(*listen); err != nil {
		log.Fatalf("authdns: %v", err)
	}
	fmt.Printf("authdns: serving %s on %s (%s)\n", origin, srv.Addr(), zone)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Printf("authdns: %d queries served, shutting down\n", len(srv.QueryLog()))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("authdns: shutdown: %v", err)
	}
}
