package main

import (
	"net"
	"sync"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

// legacyDo53 reproduces the authoritative UDP serving loop as it
// existed before the serve engine: one blocking read per datagram, a
// fresh buffer copy and goroutine per packet, an unbounded append-only
// query log, and the truncate-then-pack response path. The anchor row
// runs this shape under the same generator as the engine rows, so
// their ratio measures exactly what the engine replaced.
type legacyDo53 struct {
	srv  *authserver.Server
	conn *net.UDPConn

	mu      sync.Mutex
	queries []authserver.QueryLogEntry

	wg sync.WaitGroup
}

func startLegacyDo53(zone *authserver.Zone) (*legacyDo53, error) {
	uaddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, err
	}
	l := &legacyDo53{srv: authserver.NewServer(zone), conn: conn}
	l.wg.Add(1)
	go l.loop()
	return l, nil
}

func (l *legacyDo53) addr() string { return l.conn.LocalAddr().String() }

func (l *legacyDo53) loop() {
	defer l.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, src, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		l.wg.Add(1)
		go l.handle(pkt, src)
	}
}

func (l *legacyDo53) handle(pkt []byte, src *net.UDPAddr) {
	defer l.wg.Done()
	q := dnswire.GetMessage()
	defer dnswire.PutMessage(q)
	if err := dnswire.UnpackInto(pkt, q); err != nil {
		return
	}
	if q.Header.Response || len(q.Questions) == 0 {
		return
	}
	l.mu.Lock()
	l.queries = append(l.queries, authserver.QueryLogEntry{
		Time: time.Now(), Source: src.AddrPort(),
		Name: q.Questions[0].Name, Type: q.Questions[0].Type,
		Protocol: "udp",
	})
	l.mu.Unlock()
	resp := l.srv.Answer(q)
	limited, err := resp.Truncate(dnswire.MaxUDPPayload)
	if err != nil {
		return
	}
	wire, err := limited.Pack()
	if err != nil {
		return
	}
	l.conn.WriteToUDP(wire, src)
}

func (l *legacyDo53) close() {
	l.conn.Close()
	l.wg.Wait()
}
