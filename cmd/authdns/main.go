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

	"repro/internal/authserver"
	"repro/internal/cmdconfig"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

func main() {
	serving := cmdconfig.ServingFlags("127.0.0.1:5300", cmdconfig.Listeners|cmdconfig.MaxConns|cmdconfig.RRL)
	zoneName := flag.String("zone", "a.com", "zone origin")
	target := flag.String("addr", "127.0.0.1", "A record target for the wildcard")
	zoneFile := flag.String("zonefile", "", "BIND-style master file to load instead of the built-in zone")
	flag.DurationVar(&serving.StreamWriteTimeout, "write-timeout", 0, "per-response TCP write deadline (0 = idle timeout, negative = none)")
	flag.IntVar(&serving.MaxFrameBytes, "max-frame", 0, "max TCP request frame bytes; oversize closes the connection (0 = 64KiB-1)")
	debug := cmdconfig.DebugFlag()
	flag.Parse()
	ctx := serving.Notify(context.Background())

	origin := dnswire.NewName(*zoneName)
	var zone *authserver.Zone
	if *zoneFile != "" {
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

	reg := obs.NewRegistry()
	srv := authserver.NewServer(zone)
	srv.Logger = log.New(os.Stderr, "authdns: ", log.LstdFlags)
	srv.Listeners = serving.Listeners
	srv.Protect = serving.Protection
	srv.Registry = reg
	if err := srv.ListenAndServe(serving.Listen); err != nil {
		log.Fatalf("authdns: %v", err)
	}
	fmt.Printf("authdns: serving %s on %s (%s)\n", origin, srv.Addr(), zone)
	dbg, err := cmdconfig.Debug("authdns:", *debug, reg)
	if err != nil {
		log.Fatalf("authdns: %v", err)
	}

	err = serving.Run(ctx, cmdconfig.Report{Prefix: "authdns:"}, srv, dbg)
	fmt.Printf("authdns: %d queries served\n", len(srv.QueryLog()))
	if err != nil {
		log.Fatalf("authdns: shutdown: %v", err)
	}
}
