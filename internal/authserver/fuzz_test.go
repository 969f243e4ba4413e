package authserver

import (
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// FuzzParseZoneFile drives the master-file parser with arbitrary
// text: it must never panic, and any zone it accepts must answer a
// lookup without panicking either. Its answers for the origin and for
// www under it (A, TXT, CNAME) must pack: a record the wire cannot
// carry is refused at load, not dropped at answer time.
func FuzzParseZoneFile(f *testing.F) {
	f.Add(sampleZone)
	f.Add(referralZone)
	f.Add("$ORIGIN x.\nw A 192.0.2.1\n")
	f.Add("$TTL 1h\n@ IN SOA a b (1 2 3 4 5)\n")
	f.Add("; comment only\n")
	f.Add("$ORIGIN z.\n* 60 IN A 10.0.0.1\n")
	f.Add("$ORIGIN a.com.\nwww CNAME " + strings.Repeat("l", 70) + ".a.com.\n")
	f.Add("$ORIGIN a.com.\nwww TXT \"" + strings.Repeat("t", 300) + "\"\n")

	f.Fuzz(func(t *testing.T, input string) {
		z, err := ParseZoneFile(strings.NewReader(input), "fuzz.test.")
		if err != nil {
			return
		}
		z.Lookup("name.fuzz.test.", 1)
		z.Lookup(z.Origin(), 2)
		_, _ = z.SOA()

		srv := NewServer(z)
		for _, name := range []dnswire.Name{z.Origin(), dnswire.NewName("www." + strings.TrimSuffix(string(z.Origin()), "."))} {
			for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeCNAME} {
				q := dnswire.NewQuery(1, name, typ)
				if _, err := q.AppendPack(nil); err != nil {
					continue // the name itself is too long to ask
				}
				if _, err := srv.Answer(q).AppendPack(nil); err != nil {
					t.Fatalf("answer for %s %s does not pack: %v", name, typ, err)
				}
			}
		}
	})
}
