package dohserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/serve"
)

// parentAnswer is the parent tree's answer path, kept as the oracle:
// decode into a message of its own, scrub ECS (as every front does),
// Resolve, a failure as SERVFAIL, and pack — AppendPackLimit on the
// Do53/DoT limit, AppendPack for DoH (limit 0).
func parentAnswer(t testing.TB, r *recursive.Resolver, raw []byte, limit int) []byte {
	t.Helper()
	q := new(dnswire.Message)
	if err := dnswire.UnpackInto(raw, q); err != nil {
		t.Fatal(err)
	}
	if _, err := dnswire.StripECS(q); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Resolve(context.Background(), q)
	if err != nil {
		resp = q.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		resp.Header.RecursionAvailable = true
	}
	var wire []byte
	if limit == 0 {
		wire, err = resp.AppendPack(nil)
	} else {
		wire, err = resp.AppendPackLimit(nil, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// sameBytesUpstream answers by the query name's first label: nx is
// NXDOMAIN and nodata NODATA (each with an SOA), big is 40 A records, glue
// is an A record (TTL 120) with an additional one (TTL 20); anything else
// one A record, TTL 300. It fails while down is set.
func sameBytesUpstream(down *atomic.Bool) recursive.UpstreamFunc {
	return func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if down.Load() {
			return nil, errors.New("upstream down")
		}
		name := q.Questions[0].Name
		m := q.Reply()
		a := func(owner dnswire.Name, ttl uint32, i int) dnswire.ResourceRecord {
			return dnswire.ResourceRecord{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
				Data: dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}}
		}
		soa := dnswire.ResourceRecord{Name: "a.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.SOARecord{MName: "ns1.a.com.", RName: "hostmaster.a.com.", Serial: 7, Minimum: 600}}
		switch name.Canonical().Labels()[0] {
		case "nx":
			m.Header.RCode = dnswire.RCodeNXDomain
			m.Authorities = append(m.Authorities, soa)
		case "nodata":
			m.Authorities = append(m.Authorities, soa)
		case "big":
			for i := 0; i < 40; i++ {
				m.Answers = append(m.Answers, a(name, 300, i))
			}
		case "glue":
			m.Answers = append(m.Answers, a(name, 120, 1))
			m.Additionals = append(m.Additionals, a("ns.a.com.", 20, 2))
		default:
			m.Answers = append(m.Answers, a(name, 300, 1))
		}
		return m, nil
	}
}

// TestAnswersMatchTheParentPath: serve.Answer on the packet and the
// stream limit, and the DoH handler (all three scrub ECS), answer byte for
// byte what the parent's path (parentAnswer) packs, over
// lowercase and mixed-case names, RD 0 and 1, EDNS with and without
// ECS, negative entries, an entry aged until a TTL reaches 0, a stale
// entry capped, and an answer too big for a datagram. Each answer
// echoes its asker's question.
func TestAnswersMatchTheParentPath(t *testing.T) {
	opt := func(ecs bool) dnswire.ResourceRecord {
		var opts []dnswire.EDNSOption
		if ecs {
			o, err := (dnswire.ECS{Prefix: netip.MustParsePrefix("198.51.100.0/24")}).Option()
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, o)
		}
		return dnswire.ResourceRecord{Name: ".", Type: dnswire.TypeOPT,
			Data: dnswire.OPTRecord{UDPSize: 1232}.WithOptions(opts)}
	}
	for _, tc := range []struct {
		name        string
		ask, primed dnswire.Name // the query's spelling, the first asker's
		rd          bool
		edns        []dnswire.ResourceRecord
		age         time.Duration
		stale       bool
		ttls        []uint32 // every record's TTL in the answer, when checked
	}{
		{name: "lowercase", ask: "www.a.com.", primed: "www.a.com.", rd: true, ttls: []uint32{300}},
		{name: "mixed case", ask: "WwW.A.cOm.", primed: "www.a.com.", rd: true},
		{name: "mixed case primed", ask: "www.a.com.", primed: "WwW.A.cOm.", rd: true},
		{name: "RD 0", ask: "www.a.com.", primed: "www.a.com."},
		{name: "EDNS", ask: "www.a.com.", primed: "www.a.com.", rd: true, edns: []dnswire.ResourceRecord{opt(false)}},
		{name: "EDNS with ECS", ask: "www.a.com.", primed: "www.a.com.", rd: true, edns: []dnswire.ResourceRecord{opt(true)}},
		{name: "NXDOMAIN", ask: "nx.a.com.", primed: "nx.a.com.", rd: true, age: 5 * time.Second, ttls: []uint32{3595}},
		{name: "NODATA", ask: "NoData.a.com.", primed: "nodata.a.com.", rd: true, age: 5 * time.Second, ttls: []uint32{3595}},
		{name: "aged to TTL 0", ask: "glue.a.com.", primed: "glue.a.com.", rd: true, age: 100 * time.Second, ttls: []uint32{20, 0}},
		{name: "stale", ask: "www.a.com.", primed: "www.a.com.", rd: true, age: 400 * time.Second, stale: true, ttls: []uint32{30}},
		{name: "over 512 bytes", ask: "big.a.com.", primed: "big.a.com.", rd: true, age: time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			now := time.Unix(1_700_000_000, 0)
			var down atomic.Bool
			r := recursive.New(cache.New(cache.Config{
				Clock:    func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
				StaleTTL: time.Hour,
			}))
			r.SetDefault(sameBytesUpstream(&down))
			if _, err := r.Resolve(context.Background(), dnswire.NewQuery(1, tc.primed, dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			now = now.Add(tc.age)
			mu.Unlock()
			down.Store(tc.stale)

			q := dnswire.NewQuery(0xabcd, tc.ask, dnswire.TypeA)
			q.Header.RecursionDesired = tc.rd
			q.Additionals = tc.edns
			raw, err := q.Pack()
			if err != nil {
				t.Fatal(err)
			}
			question := raw[12 : 12+len(tc.ask)+1+4] // the wire name, type and class

			check := func(subject string, got, want []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Errorf("%s:\n got  %x\n want %x", subject, got, want)
				}
				if len(got) < 12+len(question) || !bytes.Equal(got[12:12+len(question)], question) {
					t.Errorf("%s: answer does not echo the asker's question %x", subject, question)
				}
			}
			for _, limit := range []int{dnswire.MaxUDPPayload, serve.MaxStreamPayload} {
				want := parentAnswer(t, r, raw, limit)
				got, err := serve.Answer(context.Background(), r, nil, raw, limit)
				if err != nil {
					t.Fatal(err)
				}
				check("serve.Answer", got, want)
				if tc.ask == "big.a.com." {
					tcBit := got[2]&0x02 != 0
					if tcBit != (limit == dnswire.MaxUDPPayload) || limit != dnswire.MaxUDPPayload && len(got) <= dnswire.MaxUDPPayload {
						t.Errorf("limit %d: TC=%v, %d bytes", limit, tcBit, len(got))
					}
				}
				if limit == serve.MaxStreamPayload && tc.ttls != nil {
					m, err := dnswire.Unpack(got)
					if err != nil {
						t.Fatal(err)
					}
					var ttls []uint32
					for _, rr := range append(append(m.Answers, m.Authorities...), m.Additionals...) {
						ttls = append(ttls, rr.TTL)
					}
					if !slices.Equal(ttls, tc.ttls) {
						t.Errorf("TTLs %v, want %v", ttls, tc.ttls)
					}
				}
			}
			want := parentAnswer(t, r, raw, 0)
			rec := httptest.NewRecorder()
			NewHandler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				DefaultPath+"?dns="+base64.RawURLEncoding.EncodeToString(raw), nil))
			check("ServeHTTP", rec.Body.Bytes(), want)

			r.Cache().Wait() // a stale case's refresh, which fails: the entry stays stale
			st := r.Cache().Stats()
			if hits := st.Hits + st.StaleHits; st.Misses != 1 || hits != 6 || tc.stale != (st.StaleHits == 6) {
				t.Errorf("stats %+v: the compared answers were not all %s hits", st, map[bool]string{true: "stale", false: "fresh"}[tc.stale])
			}
		})
	}
}
