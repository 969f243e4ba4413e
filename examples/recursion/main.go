// Recursion: a complete DNS delegation hierarchy in one process —
// root zone, .com TLD, and the measurement zone a.com — resolved by
// the iterative resolver exactly the way the paper's public DoH
// providers recurse on a cache miss: referral by referral from the
// root, then cached so the second query never leaves the resolver.
//
// Run:
//
//	go run ./examples/recursion
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/recursive"
)

func serve(z *authserver.Zone) *authserver.Server {
	s := authserver.NewServer(z)
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	return s
}

func add(z *authserver.Zone, name dnswire.Name, ttl uint32, data dnswire.RData) {
	if err := z.Add(dnswire.ResourceRecord{Name: name, TTL: ttl, Data: data}); err != nil {
		log.Fatal(err)
	}
}

func main() {
	// Synthetic glue addresses; the resolver maps them to the real
	// loopback listeners (in production glue carries public IPs and
	// everything listens on port 53).
	rootIP := netip.MustParseAddr("192.0.2.1")
	comIP := netip.MustParseAddr("192.0.2.2")
	acomIP := netip.MustParseAddr("192.0.2.3")
	webIP := netip.MustParseAddr("198.51.100.80")

	acom := authserver.NewZone("a.com.")
	if err := acom.SetSOA("ns1.a.com.", "hostmaster.a.com.", 2021050401); err != nil {
		log.Fatal(err)
	}
	add(acom, "a.com.", 300, dnswire.NSRecord{NS: "ns1.a.com."})
	add(acom, "ns1.a.com.", 300, dnswire.ARecord{Addr: acomIP})
	add(acom, "*.a.com.", 60, dnswire.ARecord{Addr: webIP})
	acomSrv := serve(acom)
	defer acomSrv.Shutdown(context.Background())

	com := authserver.NewZone("com.")
	if err := com.SetSOA("ns1.gtld.com.", "hostmaster.gtld.com.", 1); err != nil {
		log.Fatal(err)
	}
	add(com, "com.", 300, dnswire.NSRecord{NS: "ns1.gtld.com."})
	add(com, "ns1.gtld.com.", 300, dnswire.ARecord{Addr: comIP})
	add(com, "a.com.", 300, dnswire.NSRecord{NS: "ns1.a.com."})
	add(com, "ns1.a.com.", 300, dnswire.ARecord{Addr: acomIP}) // glue
	comSrv := serve(com)
	defer comSrv.Shutdown(context.Background())

	root := authserver.NewZone(".")
	if err := root.SetSOA("a.root-servers.test.", "hostmaster.root.", 1); err != nil {
		log.Fatal(err)
	}
	add(root, ".", 300, dnswire.NSRecord{NS: "a.root-servers.test."})
	add(root, "a.root-servers.test.", 300, dnswire.ARecord{Addr: rootIP})
	add(root, "com.", 300, dnswire.NSRecord{NS: "ns1.gtld.com."})
	add(root, "ns1.gtld.com.", 300, dnswire.ARecord{Addr: comIP}) // glue
	rootSrv := serve(root)
	defer rootSrv.Shutdown(context.Background())

	addrMap := map[netip.Addr]string{
		rootIP: rootSrv.Addr(), comIP: comSrv.Addr(), acomIP: acomSrv.Addr(),
	}
	fmt.Println("root zone  .      ->", rootSrv.Addr())
	fmt.Println("TLD zone   com.   ->", comSrv.Addr())
	fmt.Println("leaf zone  a.com. ->", acomSrv.Addr())

	res := recursive.New(nil)
	res.SetDefault(&recursive.Iterative{
		Roots: []string{rootSrv.Addr()},
		AddrToServer: func(addr netip.Addr) string {
			if real, ok := addrMap[addr]; ok {
				return real
			}
			return addr.String() + ":53"
		},
	})

	queries := func() (root, com, acom int) {
		return len(rootSrv.QueryLog()), len(comSrv.QueryLog()), len(acomSrv.QueryLog())
	}

	fmt.Println("\nresolving uuid-4f2a.a.com. A (cache miss):")
	resp, err := res.Resolve(context.Background(),
		dnswire.NewQuery(1, "uuid-4f2a.a.com.", dnswire.TypeA))
	if err != nil {
		log.Fatal(err)
	}
	for _, rr := range resp.Answers {
		fmt.Printf("  %s\n", rr)
	}
	r, c, a := queries()
	fmt.Printf("  walk: root=%d com=%d a.com=%d queries (referral chain)\n", r, c, a)

	fmt.Println("\nresolving the same name again (cache hit):")
	if _, err := res.Resolve(context.Background(),
		dnswire.NewQuery(2, "uuid-4f2a.a.com.", dnswire.TypeA)); err != nil {
		log.Fatal(err)
	}
	r2, c2, a2 := queries()
	fmt.Printf("  walk: root=%+d com=%+d a.com=%+d new queries (served from cache)\n", r2-r, c2-c, a2-a)

	st := res.Cache().Stats()
	fmt.Printf("\nresolver cache: %d hit, %d miss — the paper's UUID methodology\n", st.Hits, st.Misses)
	fmt.Println("forces the miss path above for every single measurement.")
}
