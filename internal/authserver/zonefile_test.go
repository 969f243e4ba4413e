package authserver

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

const sampleZone = `
; the measurement zone, as deployed on the paper's BIND9 server
$ORIGIN a.com.
$TTL 1h

@       IN  SOA ns1 hostmaster (
            2021050401 ; serial
            7200       ; refresh
            900        ; retry
            2w         ; expire
            60 )       ; minimum

@           NS      ns1
ns1         A       198.51.100.53
www   300   A       198.51.100.80
www   300   AAAA    2001:db8::50
alias       CNAME   www
mail        MX      10 mx1.a.com.
            MX      20 mx2
txt         TXT     "v=probe; run=2" "second"
*           60 IN A 198.51.100.80
sub.deep    A       198.51.100.81
`

func parseSample(t *testing.T) *Zone {
	t.Helper()
	z, err := ParseZoneFile(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatalf("ParseZoneFile: %v", err)
	}
	return z
}

func TestZoneFileBasics(t *testing.T) {
	z := parseSample(t)
	if z.Origin() != "a.com." {
		t.Errorf("origin = %s", z.Origin())
	}
	soa, ok := z.SOA()
	if !ok {
		t.Fatal("no SOA parsed")
	}
	s := soa.Data.(dnswire.SOARecord)
	if s.Serial != 2021050401 || s.Expire != 1209600 || s.Minimum != 60 {
		t.Errorf("SOA = %+v", s)
	}
	if s.MName != "ns1.a.com." {
		t.Errorf("SOA MName = %s (relative name not resolved)", s.MName)
	}
	if len(z.NS()) != 1 {
		t.Errorf("NS records = %d", len(z.NS()))
	}
}

func TestZoneFileRecords(t *testing.T) {
	z := parseSample(t)

	rrs, res := z.Lookup("www.a.com.", dnswire.TypeA)
	if res != Success || len(rrs) != 1 {
		t.Fatalf("www A = %v, %v", rrs, res)
	}
	if rrs[0].TTL != 300 {
		t.Errorf("www TTL = %d, want explicit 300", rrs[0].TTL)
	}
	if a := rrs[0].Data.(dnswire.ARecord); a.Addr != netip.MustParseAddr("198.51.100.80") {
		t.Errorf("www addr = %v", a.Addr)
	}

	rrs, res = z.Lookup("www.a.com.", dnswire.TypeAAAA)
	if res != Success || len(rrs) != 1 {
		t.Fatalf("www AAAA = %v, %v", rrs, res)
	}

	rrs, res = z.Lookup("ns1.a.com.", dnswire.TypeA)
	if res != Success || rrs[0].TTL != 3600 {
		t.Fatalf("ns1 = %v (default $TTL 1h expected)", rrs)
	}

	rrs, res = z.Lookup("alias.a.com.", dnswire.TypeCNAME)
	if res != Success || rrs[0].Data.(dnswire.CNAMERecord).Target != "www.a.com." {
		t.Fatalf("alias = %v", rrs)
	}

	// Inherited owner: the second MX line has a blank owner.
	rrs, res = z.Lookup("mail.a.com.", dnswire.TypeMX)
	if res != Success || len(rrs) != 2 {
		t.Fatalf("mail MX = %v, %v", rrs, res)
	}
	mx2 := rrs[1].Data.(dnswire.MXRecord)
	if mx2.Preference != 20 || mx2.MX != "mx2.a.com." {
		t.Errorf("second MX = %+v", mx2)
	}

	rrs, res = z.Lookup("txt.a.com.", dnswire.TypeTXT)
	if res != Success {
		t.Fatalf("txt = %v", res)
	}
	txt := rrs[0].Data.(dnswire.TXTRecord)
	if len(txt.Strings) != 2 || txt.Strings[0] != "v=probe; run=2" {
		t.Errorf("TXT = %v (quoted semicolon must survive)", txt.Strings)
	}

	// Wildcard from the file.
	rrs, res = z.Lookup("someuuid.a.com.", dnswire.TypeA)
	if res != Success || rrs[0].Name != "someuuid.a.com." {
		t.Fatalf("wildcard = %v, %v", rrs, res)
	}

	rrs, res = z.Lookup("sub.deep.a.com.", dnswire.TypeA)
	if res != Success {
		t.Fatalf("multi-label owner = %v", res)
	}
}

func TestZoneFileDefaultOrigin(t *testing.T) {
	z, err := ParseZoneFile(strings.NewReader("www A 192.0.2.1\n"), "b.org.")
	if err != nil {
		t.Fatalf("ParseZoneFile: %v", err)
	}
	if _, res := z.Lookup("www.b.org.", dnswire.TypeA); res != Success {
		t.Errorf("lookup with default origin = %v", res)
	}
}

func TestZoneFileErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no origin", "www A 192.0.2.1\n"},
		{"bad A", "$ORIGIN x.\nw A not-an-ip\n"},
		{"ipv6 in A", "$ORIGIN x.\nw A 2001:db8::1\n"},
		{"ipv4 in AAAA", "$ORIGIN x.\nw AAAA 192.0.2.1\n"},
		{"unknown type", "$ORIGIN x.\nw SRV 1 2 3 t.x.\n"},
		{"unbalanced parens", "$ORIGIN x.\n@ SOA a b (1 2 3 4 5\n"},
		{"missing type", "$ORIGIN x.\nw 300 IN\n"},
		{"bad MX pref", "$ORIGIN x.\nw MX ten mx.x.\n"},
		{"generate unsupported", "$GENERATE 1-10 h$ A 192.0.2.1\n"},
		{"inherited owner first", "$ORIGIN x.\n  A 192.0.2.1\n"},
		{"empty file", "\n\n"},
		{"bad ttl directive", "$TTL soon\n"},
	}
	for _, tc := range cases {
		if _, err := ParseZoneFile(strings.NewReader(tc.in), ""); err == nil {
			t.Errorf("%s: parse succeeded", tc.name)
		}
	}
}

// TestZoneRejectsRecordsTheWireCannotCarry: a record whose name or
// RDATA breaks an RFC 1035 limit is refused at load, by the master-file
// parser (its error names the line) and by Zone.Add alike. Accepted, it
// would make every answer holding it unpackable, and the server would
// drop those replies.
func TestZoneRejectsRecordsTheWireCannotCarry(t *testing.T) {
	label := strings.Repeat("l", 70)
	txt := strings.Repeat("t", 300)
	for _, tc := range []struct {
		name string
		line string
		rr   dnswire.ResourceRecord
	}{
		{"CNAME target with a 70-octet label", "www CNAME " + label + ".a.com.",
			dnswire.ResourceRecord{Name: "www.a.com.", Data: dnswire.CNAMERecord{Target: dnswire.Name(label + ".a.com.")}}},
		{"300-byte TXT string", `www TXT "` + txt + `"`,
			dnswire.ResourceRecord{Name: "www.a.com.", Data: dnswire.TXTRecord{Strings: []string{txt}}}},
		{"70-octet owner label", label + " A 192.0.2.1",
			dnswire.ResourceRecord{Name: dnswire.Name(label + ".a.com."), Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}}},
	} {
		_, err := ParseZoneFile(strings.NewReader("$ORIGIN a.com.\n"+tc.line+"\n"), "")
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: ParseZoneFile error = %v, want one naming line 2", tc.name, err)
		}
		if err := NewZone("a.com.").Add(tc.rr); err == nil {
			t.Errorf("%s: Zone.Add accepted it", tc.name)
		}
	}
}

func TestParseTTLUnits(t *testing.T) {
	cases := map[string]uint32{
		"60": 60, "5m": 300, "2h": 7200, "1d": 86400, "2w": 1209600, "30S": 30,
	}
	for in, want := range cases {
		got, err := parseTTL(in)
		if err != nil || got != want {
			t.Errorf("parseTTL(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5", "99999999999"} {
		if _, err := parseTTL(bad); err == nil {
			t.Errorf("parseTTL(%q) succeeded", bad)
		}
	}
}

func TestZoneFileServedEndToEnd(t *testing.T) {
	z := parseSample(t)
	srv := NewServer(z)
	q := dnswire.NewQuery(5, "alias.a.com.", dnswire.TypeA)
	resp := srv.Answer(q)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	// CNAME chased to the A record.
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}
