// Quickstart: a complete DoH stack in one process.
//
// It starts an authoritative server for a.com (wildcard answering
// every UUID subdomain), a caching recursive resolver, and an RFC 8484
// DoH server over TLS — then resolves a fresh cache-busting name via
// DoH, once cold and once over the reused connection, printing the
// timing split the study is built on.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dohserver"
	"repro/internal/recursive"
	"repro/internal/resolver"
	"repro/internal/tlsutil"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run starts the stack, resolves two unique names through it and
// writes what each query cost to w.
func run(w io.Writer) error {
	// 1. Authoritative name server for the measurement zone.
	zone := authserver.NewZone("a.com.")
	if err := zone.SetSOA("ns1.a.com.", "hostmaster.a.com.", 2021042901); err != nil {
		return err
	}
	if err := zone.Add(dnswire.ResourceRecord{
		Name: "*.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")},
	}); err != nil {
		return err
	}
	auth := authserver.NewServer(zone)
	if err := auth.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer auth.Shutdown(context.Background())
	fmt.Fprintln(w, "authoritative server:", auth.Addr())

	// 2. Recursive resolver fronting it (the DoH backend).
	res := recursive.New(nil)
	res.AddZone("a.com.", resolver.UpstreamAdapter{R: resolver.NewDo53(auth.Addr(), nil)})

	// 3. RFC 8484 DoH server over TLS (1.3 is what the handshake below
	// negotiates), on a self-signed certificate.
	tlsCfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		return err
	}
	doh := dohserver.NewServer(dohserver.NewHandler(res).Mux(), tlsCfg)
	if err := doh.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer doh.Shutdown(context.Background())
	url := "https://" + doh.Addr() + dohserver.DefaultPath
	fmt.Fprintln(w, "DoH server:", url)

	// 4. Resolve a unique name: cold, then over the warm connection.
	client, err := dohclient.New(url, &dohclient.Options{InsecureTLS: true})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i, name := range []dnswire.Name{"uuid-cold.a.com.", "uuid-warm.a.com."} {
		resp, timing, err := client.Query(ctx, name, dnswire.TypeA)
		if err != nil {
			return err
		}
		kind := "DoH1 (cold: TCP+TLS handshakes)"
		if timing.Reused {
			kind = "DoHR (warm: connection reused)"
		}
		fmt.Fprintf(w, "\nquery %d %s -> %s\n", i+1, name, kind)
		fmt.Fprintf(w, "  total=%v connect=%v tls=%v roundtrip=%v\n",
			timing.Total.Round(time.Microsecond),
			timing.Connect.Round(time.Microsecond),
			timing.TLSHandshake.Round(time.Microsecond),
			timing.RoundTrip.Round(time.Microsecond))
		for _, rr := range resp.Answers {
			fmt.Fprintf(w, "  %s\n", rr)
		}
	}

	// 5. Every unique name is a cache miss at the recursive resolver,
	// so both queries reached the authoritative server — the paper's
	// cache-busting methodology.
	fmt.Fprintf(w, "\nauthoritative server saw %d queries (one per unique name)\n",
		len(auth.QueryLog()))
	return nil
}
