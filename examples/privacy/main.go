// Privacy: the motivation behind the paper's whole line of work,
// demonstrated on this stack. Three mechanisms:
//
//  1. Transport encryption (DoH/DoT) hides query names from on-path
//     observers — here we contrast what each hop of the resolution
//     chain learns.
//  2. QNAME minimization (RFC 7816) keeps ancestor zones from seeing
//     full names even though they participate in resolution.
//  3. ECS scrubbing: the DoH server drops EDNS Client Subnet options
//     before recursion, the commitment the paper's ethics appendix
//     makes about client addresses.
//
// Run:
//
//	go run ./examples/privacy
package main

import (
	"context"
	"encoding/base64"
	"fmt"
	"log"
	"net/http/httptest"
	"net/netip"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/dohserver"
	"repro/internal/recursive"
)

func serve(z *authserver.Zone) *authserver.Server {
	s := authserver.NewServer(z)
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	return s
}

func add(z *authserver.Zone, name dnswire.Name, data dnswire.RData) {
	if err := z.Add(dnswire.ResourceRecord{Name: name, TTL: 300, Data: data}); err != nil {
		log.Fatal(err)
	}
}

func namesSeen(s *authserver.Server) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range s.QueryLog() {
		if !seen[string(e.Name)] {
			seen[string(e.Name)] = true
			out = append(out, string(e.Name))
		}
	}
	return out
}

func main() {
	// A three-level hierarchy: root -> com -> a.com.
	rootIP := netip.MustParseAddr("192.0.2.1")
	comIP := netip.MustParseAddr("192.0.2.2")
	acomIP := netip.MustParseAddr("192.0.2.3")

	acom := authserver.NewZone("a.com.")
	if err := acom.SetSOA("ns1.a.com.", "h.a.com.", 1); err != nil {
		log.Fatal(err)
	}
	add(acom, "a.com.", dnswire.NSRecord{NS: "ns1.a.com."})
	add(acom, "ns1.a.com.", dnswire.ARecord{Addr: acomIP})
	add(acom, "very-private-subdomain.a.com.", dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")})
	acomSrv := serve(acom)
	defer acomSrv.Shutdown(context.Background())

	com := authserver.NewZone("com.")
	if err := com.SetSOA("ns1.gtld.com.", "h.gtld.com.", 1); err != nil {
		log.Fatal(err)
	}
	add(com, "com.", dnswire.NSRecord{NS: "ns1.gtld.com."})
	add(com, "ns1.gtld.com.", dnswire.ARecord{Addr: comIP})
	add(com, "a.com.", dnswire.NSRecord{NS: "ns1.a.com."})
	add(com, "ns1.a.com.", dnswire.ARecord{Addr: acomIP})
	comSrv := serve(com)
	defer comSrv.Shutdown(context.Background())

	root := authserver.NewZone(".")
	if err := root.SetSOA("ns1.root.", "h.root.", 1); err != nil {
		log.Fatal(err)
	}
	add(root, ".", dnswire.NSRecord{NS: "ns1.root."})
	add(root, "ns1.root.", dnswire.ARecord{Addr: rootIP})
	add(root, "com.", dnswire.NSRecord{NS: "ns1.gtld.com."})
	add(root, "ns1.gtld.com.", dnswire.ARecord{Addr: comIP})
	rootSrv := serve(root)
	defer rootSrv.Shutdown(context.Background())

	addrMap := map[netip.Addr]string{
		rootIP: rootSrv.Addr(), comIP: comSrv.Addr(), acomIP: acomSrv.Addr(),
	}
	toServer := func(addr netip.Addr) string {
		if real, ok := addrMap[addr]; ok {
			return real
		}
		return addr.String() + ":53"
	}
	name := dnswire.Name("very-private-subdomain.a.com.")

	fmt.Println("1. who learns the query name during plain recursion?")
	plain := recursive.New(nil)
	plain.SetDefault(&recursive.Iterative{Roots: []string{rootSrv.Addr()}, AddrToServer: toServer})
	if _, err := plain.Resolve(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   root server saw: %v\n", namesSeen(rootSrv))
	fmt.Printf("   com TLD saw:     %v\n", namesSeen(comSrv))
	fmt.Printf("   a.com saw:       %v\n", namesSeen(acomSrv))
	fmt.Println("   -> every zone in the chain learns the full name")

	fmt.Println("\n2. with QNAME minimization (RFC 7816):")
	// Fresh servers to get clean logs.
	rootSrvB, comSrvB, acomSrvB := serve(root), serve(com), serve(acom)
	defer rootSrvB.Shutdown(context.Background())
	defer comSrvB.Shutdown(context.Background())
	defer acomSrvB.Shutdown(context.Background())
	addrMapB := map[netip.Addr]string{
		rootIP: rootSrvB.Addr(), comIP: comSrvB.Addr(), acomIP: acomSrvB.Addr(),
	}
	minimized := recursive.New(nil)
	minimized.SetDefault(&recursive.Iterative{
		Roots: []string{rootSrvB.Addr()},
		AddrToServer: func(addr netip.Addr) string {
			if real, ok := addrMapB[addr]; ok {
				return real
			}
			return addr.String() + ":53"
		},
		MinimizeQNames: true,
	})
	if _, err := minimized.Resolve(context.Background(), dnswire.NewQuery(2, name, dnswire.TypeA)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   root server saw: %v\n", namesSeen(rootSrvB))
	fmt.Printf("   com TLD saw:     %v\n", namesSeen(comSrvB))
	fmt.Printf("   a.com saw:       %v\n", namesSeen(acomSrvB))
	fmt.Println("   -> ancestors learn one label each; only the authoritative zone sees the name")

	fmt.Println("\n3. ECS scrubbing at the DoH server:")
	var sawECS bool
	rec := recursive.New(nil)
	rec.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		_, sawECS, _ = dnswire.FindECS(q)
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")},
		})
		return m, nil
	}))
	doh := httptest.NewServer(dohserver.NewHandler(rec).Mux())
	defer doh.Close()

	q := dnswire.NewQuery(3, name, dnswire.TypeA)
	ecs, err := (dnswire.ECS{Prefix: netip.MustParsePrefix("203.0.113.0/24")}).Option()
	if err != nil {
		log.Fatal(err)
	}
	q.Additionals = append(q.Additionals, dnswire.ResourceRecord{
		Name: ".", Type: dnswire.TypeOPT,
		Data: dnswire.OPTRecord{UDPSize: 4096}.WithOptions([]dnswire.EDNSOption{ecs}),
	})
	wire, err := q.Pack()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := doh.Client().Get(doh.URL + dohserver.DefaultPath + "?dns=" +
		base64.RawURLEncoding.EncodeToString(wire)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   client sent ECS 203.0.113.0/24; upstream saw ECS: %v\n", sawECS)
	fmt.Println("   -> the server strips client subnets before recursion (paper's ethics appendix)")
}
