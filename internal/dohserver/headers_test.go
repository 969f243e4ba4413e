package dohserver

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/tlsutil"
)

// TestSharedHeaderValuesExact: setHeaders' shared values stay exact when
// concurrent responses, over HTTP/1.1 and over h2, interleave body
// lengths and max-ages that collide in its tables (n and n + table
// size). Every query misses, so every max-age is the upstream's TTL.
func TestSharedHeaderValuesExact(t *testing.T) {
	const size = len(contentLengths)
	// An A answer costs 16 bytes behind a compressed name, so adding
	// size/16 of them moves the body length by exactly size.
	counts := []int{1, 1 + size/16}
	ttls := []uint32{60, 60 + uint32(size), 60 + 2*uint32(size)}

	// The upstream reads the answer count and TTL from the first two
	// labels: c<count>.t<ttl>.<salt>.a.com., fixed-width so that every
	// name has one length.
	r := recursive.New(nil)
	r.SetDefault(recursive.UpstreamFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		var count int
		var ttl uint32
		if _, err := fmt.Sscanf(string(q.Questions[0].Name), "c%d.t%d.", &count, &ttl); err != nil {
			return nil, err
		}
		m := q.Reply()
		for i := 0; i < count; i++ {
			m.Answers = append(m.Answers, dnswire.ResourceRecord{
				Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
				Data: dnswire.ARecord{Addr: netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})},
			})
		}
		return m, nil
	}))
	h := NewHandler(r)
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		proto  string
		cfg    *tls.Config
		scheme string
	}{
		{"HTTP/1.1", nil, "http"},
		{"HTTP/2.0", cfg, "https"},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			srv := NewServer(h.Mux(), tc.cfg)
			if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			tr := &http.Transport{TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, ForceAttemptHTTP2: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			const workers, perWorker = 6, 30
			var mu sync.Mutex
			lengths := map[int]bool{}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						count, ttl := counts[(w+i)%len(counts)], ttls[(w+i/2)%len(ttls)]
						name := dnswire.Name(fmt.Sprintf("c%02d.t%04d.s%02d%03d.a.com.", count, ttl, w, i))
						wire, err := dnswire.NewQuery(0x99, name, dnswire.TypeA).Pack()
						if err != nil {
							t.Error(err)
							return
						}
						resp, err := hc.Get(tc.scheme + "://" + srv.Addr() + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
						if err != nil {
							t.Error(err)
							return
						}
						body, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK || resp.Proto != tc.proto {
							t.Errorf("%s: %s over %s, err %v", name, resp.Status, resp.Proto, err)
							return
						}
						// A wrong Content-Length cuts the body short or ends it early.
						if m, err := dnswire.Unpack(body); err != nil || len(m.Answers) != count {
							t.Errorf("%s: body of %d bytes is not the whole answer (%v)", name, len(body), err)
						}
						mu.Lock()
						lengths[len(body)] = true
						mu.Unlock()
						if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
							t.Errorf("%s: Content-Length = %q, body is %d bytes", name, cl, len(body))
						}
						if cc, want := resp.Header.Get("Cache-Control"), fmt.Sprintf("max-age=%d", ttl); cc != want {
							t.Errorf("%s: Cache-Control = %q, want %q", name, cc, want)
						}
					}
				}(w)
			}
			wg.Wait()
			if len(lengths) != 2 {
				t.Fatalf("body lengths %v, want two that collide", lengths)
			}
			for n := range lengths {
				if !lengths[n+size] && !lengths[n-size] {
					t.Errorf("body lengths %v do not collide in a %d-slot table", lengths, size)
				}
			}
		})
	}
}
