package dohserver

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/dot"
	"repro/internal/recursive"
	"repro/internal/tlsutil"
)

// front sends one raw query to a server front and returns the raw answer.
// Each call uses a connection of its own (DoH: the shared transport's
// pool), so calls may run concurrently.
type front struct {
	name     string
	exchange func(raw []byte) ([]byte, error)
}

// startFronts serves r on every front at once — the Do53 recursor
// (UDP), DoT, and DoH over TLS (GET and POST) — until the test ends.
func startFronts(t *testing.T, r *recursive.Resolver) []front {
	t.Helper()
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	do53 := recursive.NewServer(r)
	if err := do53.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { do53.Shutdown(context.Background()) })
	dotSrv := dot.NewServer(r, cfg)
	if err := dotSrv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dotSrv.Shutdown(context.Background()) })
	doh := NewServer(NewHandler(r).Mux(), cfg)
	if err := doh.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { doh.Shutdown(context.Background()) })

	client := &http.Client{
		Transport: &http.Transport{TLSClientConfig: tlsutil.InsecureClientConfig()},
		Timeout:   5 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)
	url := "https://" + doh.Addr() + DefaultPath
	return []front{
		{frontNames[0], func(raw []byte) ([]byte, error) { return exchangeUDP(do53.Addr(), raw) }},
		{frontNames[1], func(raw []byte) ([]byte, error) { return exchangeDoT(dotSrv.Addr(), raw) }},
		{frontNames[2], func(raw []byte) ([]byte, error) {
			return httpBody(client.Get(url + "?dns=" + base64.RawURLEncoding.EncodeToString(raw)))
		}},
		{frontNames[3], func(raw []byte) ([]byte, error) {
			return httpBody(client.Post(url, ContentType, bytes.NewReader(raw)))
		}},
	}
}

var frontNames = []string{"do53-udp", "dot", "doh-get", "doh-post"}

func exchangeUDP(addr string, raw []byte) ([]byte, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	return buf[:n], err
}

func exchangeDoT(addr string, raw []byte) ([]byte, error) {
	conn, err := tls.Dial("tcp", addr, tlsutil.InsecureClientConfig())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(binary.BigEndian.AppendUint16(nil, uint16(len(raw)))); err != nil {
		return nil, err
	}
	if _, err := conn.Write(raw); err != nil {
		return nil, err
	}
	var n [2]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint16(n[:]))
	_, err = io.ReadFull(conn, buf)
	return buf, err
}

func httpBody(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// frontsUpstream answers every name with one A record, TTL 300, except
// that a query for flight.a.com. (any spelling) signals entered and
// waits for release.
func frontsUpstream(entered chan<- struct{}, release <-chan struct{}) recursive.UpstreamFunc {
	return func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		name := q.Questions[0].Name
		if name.Canonical() == "flight.a.com." {
			entered <- struct{}{}
			<-release
		}
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.53")},
		})
		return m, nil
	}
}

func rawQuery(t testing.TB, id uint16, name dnswire.Name) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// echoes reports whether answer carries query's ID and, byte for byte,
// its question section (everything after a bare query's header).
func echoes(query, answer []byte) bool {
	return len(answer) >= len(query) && bytes.Equal(answer[:2], query[:2]) &&
		bytes.Equal(answer[12:len(query)], query[12:])
}

// TestFrontsEchoTheAskersQuestion: through every front, an answer
// carries the asker's own question — a hit after a miss spelled
// otherwise, and each waiter on a shared flight. On the parent a hit for
// www.example.com. after a miss for WwW.ExAmPlE.CoM. echoed the miss's
// spelling, and flight.a.com. and Flight.A.Com. waiting on FLIGHT.a.com.
// both got FLIGHT.a.com.
func TestFrontsEchoTheAskersQuestion(t *testing.T) {
	for _, name := range frontNames {
		t.Run(name, func(t *testing.T) {
			// A cache of its own per front: each starts with the miss.
			entered, release := make(chan struct{}), make(chan struct{})
			r := recursive.New(nil)
			r.SetDefault(frontsUpstream(entered, release))
			var f front
			for _, f = range startFronts(t, r) {
				if f.name == name {
					break
				}
			}
			for _, name := range []dnswire.Name{"WwW.ExAmPlE.CoM.", "www.example.com.", "WWW.EXAMPLE.COM."} {
				q := rawQuery(t, 0x0e0e, name)
				a, err := f.exchange(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !echoes(q, a) {
					t.Errorf("asked %s: answer %x does not echo query %x", name, a, q)
				}
			}

			names := []dnswire.Name{"FLIGHT.a.com.", "flight.a.com.", "Flight.A.Com."}
			queries := make([][]byte, len(names))
			answers := make([][]byte, len(names))
			errs := make([]error, len(names))
			var wg sync.WaitGroup
			ask := func(i int) {
				defer wg.Done()
				queries[i] = rawQuery(t, uint16(0x100+i), names[i])
				answers[i], errs[i] = f.exchange(queries[i])
			}
			wg.Add(len(names))
			go ask(0)
			<-entered
			for i := 1; i < len(names); i++ {
				go ask(i)
			}
			waitForSharedFlights(t, r, int64(len(names)-1))
			close(release)
			wg.Wait()
			for i := range names {
				if errs[i] != nil {
					t.Fatalf("%s: %v", names[i], errs[i])
				}
				if !echoes(queries[i], answers[i]) {
					t.Errorf("waiter asking %s: answer %x does not echo query %x", names[i], answers[i], queries[i])
				}
			}
		})
	}
}

// TestFrontsCountOneLookupPerQuery: every front makes one cache lookup
// per query, so M misses and N hits read exactly Misses == M and
// Hits == N — what the benchmark's cache.hit_ratio and
// recursive.upstream_per_query checks rely on. A front that tried the
// cache and then called Resolve would count each miss twice.
func TestFrontsCountOneLookupPerQuery(t *testing.T) {
	r := recursive.New(nil)
	r.SetDefault(frontsUpstream(nil, nil))
	const misses, hits = 3, 7
	for _, f := range startFronts(t, r) {
		before := r.Cache().Stats()
		for i := 0; i < misses+hits; i++ {
			name := dnswire.Name(fmt.Sprintf("n%d.%s.a.com.", min(i, misses-1), f.name))
			if _, err := f.exchange(rawQuery(t, uint16(i), name)); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
		}
		after := r.Cache().Stats()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != hits || m != misses {
			t.Errorf("%s: %d hits, %d misses; want %d, %d", f.name, h, m, hits, misses)
		}
	}
}

// TestConcurrentHitsAcrossFronts (run it under -race): hits on one hot
// name arrive through Do53, DoT and DoH at once, in three spellings, on
// an entry aged a minute, so each is copied and its TTLs edited in the
// front's pooled storage. Every answer must be the one the parent's path
// packs for its own query: its ID and question, the aged TTL, nothing
// of another's.
func TestConcurrentHitsAcrossFronts(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := recursive.New(cache.New(cache.Config{Clock: clock}))
	r.SetDefault(frontsUpstream(nil, nil))
	fronts := startFronts(t, r)
	spellings := []dnswire.Name{"hot.a.com.", "HOT.a.com.", "Hot.A.Com."}
	if _, err := fronts[0].exchange(rawQuery(t, 1, spellings[0])); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	want := make([][]byte, len(spellings))
	for i, name := range spellings {
		want[i] = parentAnswer(t, r, rawQuery(t, 0, name), 0, false)
	}
	if ttl := binary.BigEndian.Uint32(want[0][len(want[0])-10:]); ttl != 240 {
		t.Fatalf("oracle answer TTL %d, want 240", ttl)
	}

	const perWorker = 25
	var wg sync.WaitGroup
	for fi, f := range fronts {
		for si := range spellings {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					id := uint16(fi<<12 | si<<8 | i)
					q := rawQuery(t, id, spellings[si])
					a, err := f.exchange(q)
					if err != nil {
						t.Errorf("%s: %v", f.name, err)
						return
					}
					if !bytes.Equal(a[:2], q[:2]) || !bytes.Equal(a[2:], want[si][2:]) {
						t.Errorf("%s, %s, ID %#x:\n got  %x\n want %x", f.name, spellings[si], id, a, want[si])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if st := r.Cache().Stats(); st.Misses != 1 {
		t.Errorf("stats %+v: the hot name missed more than once", st)
	}
}

// waitForSharedFlights returns once n callers have joined another's
// flight: the cache counts a waiter as it parks.
func waitForSharedFlights(t *testing.T, r *recursive.Resolver, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.Cache().Stats().SharedFlights < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SharedFlights = %d, want %d", r.Cache().Stats().SharedFlights, n)
		}
	}
}
