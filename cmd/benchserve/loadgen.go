// Shared closed-loop load-generation harness.
package main

import (
	"context"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dohclient"
	"repro/internal/dot"
	"repro/internal/serve/batchio"
	"repro/internal/tlsutil"
)

type loadResult struct {
	QPS  float64
	P50  time.Duration
	P99  time.Duration
	Errs int64
}

// runLoad drives fn from c concurrent closed-loop workers for d.
func runLoad(c int, d time.Duration, mk func(id int) func() error) loadResult {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lats  []time.Duration
		errs  int64
		total int64
	)
	stop := make(chan struct{})
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fn := mk(id)
			local := make([]time.Duration, 0, 4096)
			for {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
					return
				default:
				}
				t0 := time.Now()
				if err := fn(); err != nil {
					atomic.AddInt64(&errs, 1)
				} else {
					local = append(local, time.Since(t0))
					atomic.AddInt64(&total, 1)
				}
			}
		}(i)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := loadResult{QPS: float64(total) / d.Seconds(), Errs: errs}
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	return res
}

func dotWorker(addr string) func() error {
	c := &dot.Client{Addr: addr, TLSConfig: tlsutil.InsecureClientConfig()}
	q := dnswire.NewQuery(dnsclient.RandomID(), "bench.a.com.", dnswire.TypeA)
	ctx := context.Background()
	return func() error {
		resp, _, err := c.Exchange(ctx, q)
		if err != nil {
			return err
		}
		dnswire.PutMessage(resp)
		return nil
	}
}

func dohWorker(url string) func() error {
	c, err := dohclient.New(url, nil)
	if err != nil {
		panic(err)
	}
	q := dnswire.NewQuery(dnsclient.RandomID(), "bench.a.com.", dnswire.TypeA)
	ctx := context.Background()
	return func() error {
		resp, _, err := c.Exchange(ctx, q)
		if err != nil {
			return err
		}
		dnswire.PutMessage(resp)
		return nil
	}
}

// runPipelinedUDP drives the Do53 server with workers connected UDP
// sockets, each keeping up to window queries outstanding and moving
// them through batchio (sendmmsg/recvmmsg where available) so the
// generator's own syscall cost does not mask the server's. Unlike the
// closed-loop harness this builds real socket backlog — it measures
// the server's intake capacity, not the generator's round-trip
// scheduling. Per-response latency (queueing included) is recovered
// by matching DNS message IDs to send timestamps; a receive window
// that stays empty for lossTimeout is written off as dropped and the
// window refilled, so UDP loss cannot stall the generator.
func runPipelinedUDP(workers, window int, d time.Duration, addr string) loadResult {
	queryWire := packedQuery()
	const sendBatch = 32
	const lossTimeout = 100 * time.Millisecond
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lats  []time.Duration
		errs  int64
		total int64
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := net.Dial("udp", addr)
			if err != nil {
				atomic.AddInt64(&errs, 1)
				return
			}
			defer raw.Close()
			uc := raw.(*net.UDPConn)
			bc, err := batchio.NewConn(uc, sendBatch)
			if err != nil {
				atomic.AddInt64(&errs, 1)
				return
			}
			bufs := make([][]byte, sendBatch)
			for i := range bufs {
				bufs[i] = append([]byte(nil), queryWire...)
			}
			sent := make([]time.Time, 1<<16)
			local := make([]time.Duration, 0, 1<<16)
			pkts := make([][]byte, 0, sendBatch)
			outstanding, seq := 0, 0
			for {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
					return
				default:
				}
				if m := min(window-outstanding, sendBatch); m > 0 {
					now := time.Now()
					pkts = pkts[:0]
					for j := 0; j < m; j++ {
						id := seq & 0xffff
						seq++
						b := bufs[j]
						b[0], b[1] = byte(id>>8), byte(id)
						sent[id] = now
						pkts = append(pkts, b)
					}
					if err := bc.Send(pkts); err != nil {
						atomic.AddInt64(&errs, int64(m))
					} else {
						outstanding += m
					}
				}
				uc.SetReadDeadline(time.Now().Add(lossTimeout))
				n, err := bc.Recv()
				if err != nil {
					// Window written off as lost (or we are shutting down).
					atomic.AddInt64(&errs, int64(outstanding))
					outstanding = 0
					continue
				}
				now := time.Now()
				for i := 0; i < n; i++ {
					pkt := bc.Packet(i)
					if len(pkt) < 2 {
						continue
					}
					id := int(pkt[0])<<8 | int(pkt[1])
					if t0 := sent[id]; !t0.IsZero() {
						local = append(local, now.Sub(t0))
						sent[id] = time.Time{}
						atomic.AddInt64(&total, 1)
					}
				}
				if outstanding -= n; outstanding < 0 {
					outstanding = 0
				}
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := loadResult{QPS: float64(total) / d.Seconds(), Errs: errs}
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	return res
}

// overloadHandler stands in for a query that actually costs something
// (a cache-missing recursive lookup's shape): ~1ms of latency, then an
// echo with QR set so the generator can tell real answers from the
// engine's SERVFAIL sheds.
func overloadHandler(_ context.Context, out, raw []byte, _ netip.AddrPort) ([]byte, error) {
	time.Sleep(time.Millisecond)
	out = append(out, raw...)
	if len(out) >= 3 {
		out[2] |= 0x80 // QR
	}
	return out, nil
}

// runOverloadUDP is runPipelinedUDP against an engine that sheds:
// responses with RCODE=SERVFAIL are counted as shed instead of
// accepted, and only accepted answers contribute latency samples. It
// returns the accepted-side result, the total offered rate the
// generator achieved (accepted + shed), and the shed ratio.
func runOverloadUDP(workers, window int, d time.Duration, addr string) (loadResult, float64, float64) {
	queryWire := packedQuery()
	const sendBatch = 32
	const lossTimeout = 100 * time.Millisecond
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lats  []time.Duration
		errs  int64
		total int64
		shed  int64
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := net.Dial("udp", addr)
			if err != nil {
				atomic.AddInt64(&errs, 1)
				return
			}
			defer raw.Close()
			uc := raw.(*net.UDPConn)
			bc, err := batchio.NewConn(uc, sendBatch)
			if err != nil {
				atomic.AddInt64(&errs, 1)
				return
			}
			bufs := make([][]byte, sendBatch)
			for i := range bufs {
				bufs[i] = append([]byte(nil), queryWire...)
			}
			sent := make([]time.Time, 1<<16)
			local := make([]time.Duration, 0, 1<<16)
			pkts := make([][]byte, 0, sendBatch)
			outstanding, seq := 0, 0
			for {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
					return
				default:
				}
				if m := min(window-outstanding, sendBatch); m > 0 {
					now := time.Now()
					pkts = pkts[:0]
					for j := 0; j < m; j++ {
						id := seq & 0xffff
						seq++
						b := bufs[j]
						b[0], b[1] = byte(id>>8), byte(id)
						sent[id] = now
						pkts = append(pkts, b)
					}
					if err := bc.Send(pkts); err != nil {
						atomic.AddInt64(&errs, int64(m))
					} else {
						outstanding += m
					}
				}
				uc.SetReadDeadline(time.Now().Add(lossTimeout))
				n, err := bc.Recv()
				if err != nil {
					atomic.AddInt64(&errs, int64(outstanding))
					outstanding = 0
					continue
				}
				now := time.Now()
				for i := 0; i < n; i++ {
					pkt := bc.Packet(i)
					if len(pkt) < 4 {
						continue
					}
					id := int(pkt[0])<<8 | int(pkt[1])
					t0 := sent[id]
					if t0.IsZero() {
						continue
					}
					sent[id] = time.Time{}
					if pkt[3]&0x0f == 2 { // SERVFAIL: the admission budget shed it
						atomic.AddInt64(&shed, 1)
						continue
					}
					local = append(local, now.Sub(t0))
					atomic.AddInt64(&total, 1)
				}
				if outstanding -= n; outstanding < 0 {
					outstanding = 0
				}
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := loadResult{QPS: float64(total) / d.Seconds(), Errs: errs}
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	offered := float64(total+shed) / d.Seconds()
	ratio := 0.0
	if total+shed > 0 {
		ratio = float64(shed) / float64(total+shed)
	}
	return res, offered, ratio
}

func packedQuery() []byte {
	q := dnswire.NewQuery(dnsclient.RandomID(), "bench.a.com.", dnswire.TypeA)
	wire, err := q.AppendPack(nil)
	if err != nil {
		panic(err)
	}
	return wire
}
