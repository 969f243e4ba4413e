package authserver

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/serve"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("a.com.")
	if err := z.SetSOA("ns1.a.com.", "hostmaster.a.com.", 2021042901); err != nil {
		t.Fatalf("SetSOA: %v", err)
	}
	add := func(rr dnswire.ResourceRecord) {
		t.Helper()
		if err := z.Add(rr); err != nil {
			t.Fatalf("Add(%v): %v", rr, err)
		}
	}
	add(dnswire.ResourceRecord{Name: "a.com.", TTL: 3600,
		Data: dnswire.NSRecord{NS: "ns1.a.com."}})
	add(dnswire.ResourceRecord{Name: "ns1.a.com.", TTL: 3600,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.53")}})
	add(dnswire.ResourceRecord{Name: "www.a.com.", TTL: 300,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")}})
	add(dnswire.ResourceRecord{Name: "alias.a.com.", TTL: 300,
		Data: dnswire.CNAMERecord{Target: "www.a.com."}})
	// The paper's wildcard: every <UUID>.a.com resolves to the web server.
	add(dnswire.ResourceRecord{Name: "*.a.com.", TTL: 60,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("198.51.100.80")}})
	return z
}

func TestZoneLookupExact(t *testing.T) {
	z := testZone(t)
	rrs, res := z.Lookup("www.a.com.", dnswire.TypeA)
	if res != Success || len(rrs) != 1 {
		t.Fatalf("Lookup www = %v, %v", rrs, res)
	}
	if a := rrs[0].Data.(dnswire.ARecord); a.Addr != netip.MustParseAddr("198.51.100.80") {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestZoneLookupWildcard(t *testing.T) {
	z := testZone(t)
	rrs, res := z.Lookup("123e4567-e89b-12d3-a456-426614174000.a.com.", dnswire.TypeA)
	if res != Success || len(rrs) != 1 {
		t.Fatalf("wildcard lookup = %v, %v", rrs, res)
	}
	if rrs[0].Name != "123e4567-e89b-12d3-a456-426614174000.a.com." {
		t.Errorf("owner = %v, wildcard must synthesize the query name", rrs[0].Name)
	}
	// Wildcard must NOT shadow an existing name.
	rrs, res = z.Lookup("www.a.com.", dnswire.TypeTXT)
	if res != NoData {
		t.Errorf("existing name wrong type = %v, want NoData (not wildcard synthesis)", res)
	}
}

func TestZoneLookupNXDomainVsNotInZone(t *testing.T) {
	z := NewZone("a.com.")
	if err := z.Add(dnswire.ResourceRecord{Name: "www.a.com.",
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}}); err != nil {
		t.Fatal(err)
	}
	if _, res := z.Lookup("nope.a.com.", dnswire.TypeA); res != NXDomain {
		t.Errorf("missing name = %v, want NXDomain", res)
	}
	if _, res := z.Lookup("other.org.", dnswire.TypeA); res != NotInZone {
		t.Errorf("foreign name = %v, want NotInZone", res)
	}
	// Empty non-terminal: adding x.y.a.com makes y.a.com exist (NoData).
	if err := z.Add(dnswire.ResourceRecord{Name: "x.y.a.com.",
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.2")}}); err != nil {
		t.Fatal(err)
	}
	if _, res := z.Lookup("y.a.com.", dnswire.TypeA); res != NoData {
		t.Errorf("empty non-terminal = %v, want NoData", res)
	}
}

func TestZoneRejectsForeignRecord(t *testing.T) {
	z := NewZone("a.com.")
	err := z.Add(dnswire.ResourceRecord{Name: "www.b.com.",
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}})
	if err == nil {
		t.Fatal("Add accepted an out-of-zone record")
	}
}

func TestZoneCNAMEAnswersOtherTypes(t *testing.T) {
	z := testZone(t)
	rrs, res := z.Lookup("alias.a.com.", dnswire.TypeA)
	if res != Success || len(rrs) != 1 {
		t.Fatalf("CNAME lookup = %v, %v", rrs, res)
	}
	if _, ok := rrs[0].Data.(dnswire.CNAMERecord); !ok {
		t.Errorf("data = %T, want CNAMERecord", rrs[0].Data)
	}
}

func TestServerUDPEndToEnd(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer s.Shutdown(context.Background())

	var c dnsclient.Client
	resp, rtt, err := c.Query(context.Background(), s.Addr(), "www.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("header = %+v", resp.Header)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestServerCNAMEChainInResponse(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), s.Addr(), "alias.a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %v, want CNAME + A", resp.Answers)
	}
	if _, ok := resp.Answers[0].Data.(dnswire.CNAMERecord); !ok {
		t.Errorf("first answer = %T", resp.Answers[0].Data)
	}
	if _, ok := resp.Answers[1].Data.(dnswire.ARecord); !ok {
		t.Errorf("second answer = %T", resp.Answers[1].Data)
	}
}

func TestServerNXDomainCarriesSOA(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var c dnsclient.Client
	// Note: the zone has a wildcard, so use a name *above* it.
	resp, _, err := c.Query(context.Background(), s.Addr(), "a.com.", dnswire.TypeMX)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("NoData response = %+v", resp)
	}
	if len(resp.Authorities) != 1 {
		t.Fatalf("authorities = %v, want SOA", resp.Authorities)
	}
	if _, ok := resp.Authorities[0].Data.(dnswire.SOARecord); !ok {
		t.Errorf("authority = %T", resp.Authorities[0].Data)
	}
}

func TestServerTCPFallbackOnTruncation(t *testing.T) {
	z := testZone(t)
	// A fat TXT RRset that cannot fit in 512 bytes.
	for i := 0; i < 10; i++ {
		if err := z.Add(dnswire.ResourceRecord{Name: "fat.a.com.", TTL: 60,
			Data: dnswire.TXTRecord{Strings: []string{strings.Repeat("x", 200)}}}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(z)
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), s.Addr(), "fat.a.com.", dnswire.TypeTXT)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Header.Truncated {
		t.Fatal("client returned the truncated UDP response instead of retrying over TCP")
	}
	if len(resp.Answers) != 10 {
		t.Fatalf("answers = %d, want full 10 over TCP", len(resp.Answers))
	}
}

func TestServerQueryLogRecordsSources(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var c dnsclient.Client
	for i := 0; i < 3; i++ {
		if _, _, err := c.Query(context.Background(), s.Addr(), "www.a.com.", dnswire.TypeA); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	logEntries := s.QueryLog()
	if len(logEntries) != 3 {
		t.Fatalf("query log has %d entries, want 3", len(logEntries))
	}
	for _, e := range logEntries {
		if e.Name != "www.a.com." || e.Protocol != "udp" || !e.Source.IsValid() {
			t.Errorf("bad log entry: %+v", e)
		}
	}
}

// The log allocates twice on its way to the limit — a first block, then
// the whole ring — so a server under load stops allocating for its log
// after the first few hundred queries instead of re-copying it all the
// way through the first 65536 (where a benchmark's window sits).
func TestQueryLogGrowsInTwoSteps(t *testing.T) {
	s := NewServer(testZone(t))
	entry := QueryLogEntry{Name: "www.a.com.", Type: dnswire.TypeA, Protocol: "udp"}
	s.logQuery(entry)
	if got := cap(s.queries); got != queryLogFirstBlock {
		t.Fatalf("cap after the first query = %d, want %d", got, queryLogFirstBlock)
	}
	for i := 1; i <= queryLogFirstBlock; i++ {
		s.logQuery(entry)
	}
	if got := cap(s.queries); got != DefaultQueryLogLimit {
		t.Fatalf("cap after %d queries = %d, want the whole ring, %d", queryLogFirstBlock+1, got, DefaultQueryLogLimit)
	}
	if allocs := testing.AllocsPerRun(2*DefaultQueryLogLimit, func() { s.logQuery(entry) }); allocs != 0 {
		t.Errorf("logQuery with the ring in place: %v allocs/op, want 0", allocs)
	}
	if got := len(s.QueryLog()); got != DefaultQueryLogLimit {
		t.Errorf("log holds %d entries after wrapping, want %d", got, DefaultQueryLogLimit)
	}
}

func TestQueryLogRingKeepsTheNewest(t *testing.T) {
	s := NewServer(testZone(t))
	s.QueryLogLimit = 4
	for i := 0; i < 6; i++ {
		s.logQuery(QueryLogEntry{Type: dnswire.Type(i)})
	}
	if got := cap(s.queries); got != 4 {
		t.Errorf("cap = %d, want the limit, 4", got)
	}
	log := s.QueryLog()
	if len(log) != 4 {
		t.Fatalf("log holds %d entries, want 4", len(log))
	}
	for i, e := range log {
		if want := dnswire.Type(i + 2); e.Type != want {
			t.Errorf("entry %d is query %d, want %d (oldest first)", i, e.Type, want)
		}
	}
	// A limit raised later is honoured from the next query on, and the
	// wrapped ring keeps its order.
	s.QueryLogLimit = 8
	s.logQuery(QueryLogEntry{Type: 6})
	log = s.QueryLog()
	if len(log) != 5 {
		t.Fatalf("log holds %d entries after the limit was raised, want 5", len(log))
	}
	for i, e := range log {
		if want := dnswire.Type(i + 2); e.Type != want {
			t.Errorf("after the raise, entry %d is query %d, want %d", i, e.Type, want)
		}
	}
}

// TestQueryLogNamesComeFromChunks wraps a small ring many times, with a
// packet that peeks but fails to decode after every query. Every entry
// reads the name asked, spelling included, no failed packet is logged,
// and the heap the server keeps is its ring and the names in it, plus
// the slack of the two chunks at the window's ends (the one being
// written and the oldest, part dead): the log's chunks die with the
// entries cut from them. What the server keeps is what is still live of
// the allocations made under this test's calls to handlePacket, read
// from the allocation profile: the process's heap would also count what
// other tests leave behind and what the runtime allocates for itself
// meanwhile (an M and its g0, 5.5 KB, when it starts a thread).
func TestQueryLogNamesComeFromChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const limit, queries = 64, 200 * 64
	name := func(i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("q%06d.A.com.", i)) }
	s := NewServer(testZone(t))
	s.QueryLogLimit = limit
	src := netip.MustParseAddrPort("192.0.2.53:53")
	for i := 0; i < queries; i++ {
		raw, err := dnswire.NewQuery(uint16(i), name(i), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		dnswire.PutMessage(s.handlePacket(raw, src, "udp"))
		if s.handlePacket(raw[:len(raw)-2], src, "udp") != nil { // no class
			t.Fatal("a packet without a question class was answered")
		}
	}
	runtime.GC()
	runtime.GC() // the first leaves sync.Pool's victim cache behind
	kept := inUseUnder("repro/internal/authserver.TestQueryLogNamesComeFromChunks", "repro/internal/authserver.(*Server).handlePacket")
	runtime.KeepAlive(s)

	log := s.QueryLog()
	if len(log) != limit {
		t.Fatalf("log holds %d entries, want %d", len(log), limit)
	}
	names := 0
	for i, e := range log {
		if want := name(queries - limit + i); e.Name != want {
			t.Errorf("entry %d names %q, want %q", i, e.Name, want)
		}
		names += len(e.Name)
	}
	bound := cap(s.queries)*int(unsafe.Sizeof(QueryLogEntry{})) + names + 2*dnswire.ChunkSize
	t.Logf("%d queries through a %d-entry ring: %d B kept, bound %d", queries, limit, kept, bound)
	if kept > bound {
		t.Errorf("the server keeps %d B after %d queries, want <= %d: chunks outlive their entries", kept, queries, bound)
	}
}

// inUseUnder sums the bytes still in use, as of the last completed GC,
// of the profiled allocations whose stack passes through caller and
// then callee.
func inUseUnder(caller, callee string) int {
	n, _ := runtime.MemProfile(nil, false)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, false); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	total := 0
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		sawCallee := false
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			sawCallee = sawCallee || f.Function == callee
			if f.Function == caller && sawCallee {
				total += int(r.InUseBytes())
				break
			}
		}
	}
	return total
}

func TestServerRefusesForeignZone(t *testing.T) {
	s := NewServer(testZone(t))
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var c dnsclient.Client
	resp, _, err := c.Query(context.Background(), s.Addr(), "www.elsewhere.net.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestServerNotImplementedOpcode(t *testing.T) {
	s := NewServer(testZone(t))
	q := dnswire.NewQuery(9, "www.a.com.", dnswire.TypeA)
	q.Header.Opcode = dnswire.OpcodeUpdate
	resp := s.Answer(q)
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("rcode = %v, want NOTIMP", resp.Header.RCode)
	}
}

func TestServerUDPRateLimited(t *testing.T) {
	s := NewServer(testZone(t))
	// A refill too slow to matter inside the test, and no TC=1 slip:
	// over-limit queries are dropped, which the client sees as timeouts.
	s.Protect = serve.Protection{RateLimit: 0.001, RateBurst: 2, RateSlip: -1}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	c := dnsclient.Client{Timeout: 300 * time.Millisecond}
	okCount, limited := 0, 0
	for i := 0; i < 6; i++ {
		_, _, err := c.Query(context.Background(), s.Addr(), "www.a.com.", dnswire.TypeA)
		if err != nil {
			limited++
		} else {
			okCount++
		}
	}
	if okCount != 2 {
		t.Errorf("allowed = %d, want exactly the burst of 2", okCount)
	}
	if limited != 4 {
		t.Errorf("limited = %d, want 4", limited)
	}
}
