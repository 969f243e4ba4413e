package authserver

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// referralZone is an operator's zone with three cuts: glued delegates
// with in-bailiwick A and AAAA glue, bare to a server outside the zone
// (no glue to give), and w sits under the measurement wildcard *.a.com.
const referralZone = `
$ORIGIN a.com.
$TTL 1h
@           SOA     ns1 hostmaster ( 1 7200 900 2w 60 )
@           NS      ns1
ns1         A       198.51.100.53
*       60  A       198.51.100.80
alias       CNAME   target.b.net.
glued       NS      ns.glued
ns.glued    A       192.0.2.1
ns.glued    AAAA    2001:db8::1
bare        NS      ns.b.net.
w           NS      ns.w
ns.w        A       192.0.2.2
`

// TestServerAnswersReferrals: a query at or under a zone cut is a
// referral (RFC 1034 §4.3.2 step 3b), whatever the name and type: AA=0,
// NOERROR, no answers, the cut's NS set in Authority and its glue in
// Additional. That holds for the glue's own owner and for an NS query at
// the cut, and a wildcard above the cut synthesizes nothing below it. A
// CNAME to a name outside the zone is an answer of its own.
func TestServerAnswersReferrals(t *testing.T) {
	z, err := ParseZoneFile(strings.NewReader(referralZone), "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(z)
	glued := []string{"glued.a.com. 3600 IN NS ns.glued.a.com."}
	gluedGlue := []string{"ns.glued.a.com. 3600 IN A 192.0.2.1", "ns.glued.a.com. 3600 IN AAAA 2001:db8::1"}
	bare := []string{"bare.a.com. 3600 IN NS ns.b.net."}
	w := []string{"w.a.com. 3600 IN NS ns.w.a.com."}
	wGlue := []string{"ns.w.a.com. 3600 IN A 192.0.2.2"}
	for _, tc := range []struct {
		name        dnswire.Name
		typ         dnswire.Type
		aa          bool
		answers     []string
		authorities []string
		additionals []string
	}{
		{name: "glued.a.com.", typ: dnswire.TypeA, authorities: glued, additionals: gluedGlue},
		{name: "x.y.glued.a.com.", typ: dnswire.TypeAAAA, authorities: glued, additionals: gluedGlue},
		{name: "ns.glued.a.com.", typ: dnswire.TypeA, authorities: glued, additionals: gluedGlue},
		{name: "glued.a.com.", typ: dnswire.TypeNS, authorities: glued, additionals: gluedGlue},
		{name: "bare.a.com.", typ: dnswire.TypeA, authorities: bare},
		{name: "deep.bare.a.com.", typ: dnswire.TypeTXT, authorities: bare},
		{name: "uuid.w.a.com.", typ: dnswire.TypeA, authorities: w, additionals: wGlue},
		{name: "uuid.a.com.", typ: dnswire.TypeA, aa: true,
			answers: []string{"uuid.a.com. 60 IN A 198.51.100.80"}},
		{name: "alias.a.com.", typ: dnswire.TypeA, aa: true,
			answers: []string{"alias.a.com. 3600 IN CNAME target.b.net."}},
	} {
		resp := s.Answer(dnswire.NewQuery(1, tc.name, tc.typ))
		where := string(tc.name) + " " + tc.typ.String()
		if resp.Header.Authoritative != tc.aa || resp.Header.RCode != dnswire.RCodeNoError {
			t.Errorf("%s: AA=%v %v, want AA=%v NOERROR", where, resp.Header.Authoritative, resp.Header.RCode, tc.aa)
		}
		for _, sec := range []struct {
			what string
			got  []dnswire.ResourceRecord
			want []string
		}{{"answers", resp.Answers, tc.answers}, {"authority", resp.Authorities, tc.authorities}, {"additional", resp.Additionals, tc.additionals}} {
			var got []string
			for _, rr := range sec.got {
				got = append(got, rr.String())
			}
			if !slices.Equal(got, sec.want) {
				t.Errorf("%s: %s %q, want %q", where, sec.what, got, sec.want)
			}
		}
	}
}
