package dot

import (
	"crypto/tls"
	"net"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/tlsutil"
)

// reaction is what a peer does with one query.
type reaction int

const (
	answer          reaction = iota // reply at once
	answerThenClose                 // reply, then close the connection
	swallow                         // read it and say nothing, ever
)

// peer is a raw DoT server that does with each query what a test tells
// it to, and records what it saw.
type peer struct {
	ln net.Listener

	mu    sync.Mutex
	conns int      // connections accepted
	open  int      // of those, not yet closed by either side
	asked []uint16 // query IDs in arrival order, all connections
}

// newPeer starts a peer. react is called with the connection's number
// and the query's number on that connection, both from 0; it may block
// to hold the query.
func newPeer(t *testing.T, react func(conn, n int) reaction) *peer {
	t.Helper()
	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &peer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			no := p.conns
			p.conns++
			p.open++
			p.mu.Unlock()
			go p.serve(conn, no, react)
		}
	}()
	return p
}

func (p *peer) serve(conn net.Conn, no int, react func(conn, n int) reaction) {
	defer func() {
		conn.Close()
		p.mu.Lock()
		p.open--
		p.mu.Unlock()
	}()
	for n := 0; ; n++ {
		raw, err := dnsclient.ReadTCPMessage(conn)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(raw)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.asked = append(p.asked, q.Header.ID)
		p.mu.Unlock()
		r := react(no, n)
		if r == swallow {
			continue
		}
		m := q.Reply()
		m.Answers = append(m.Answers, dnswire.ResourceRecord{
			Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("203.0.113.9")},
		})
		wire, err := m.Pack()
		if err != nil || dnsclient.WriteTCPMessage(conn, wire) != nil || r == answerThenClose {
			return
		}
	}
}

func (p *peer) addr() string { return p.ln.Addr().String() }

// seen returns the connections accepted, those still open, and the
// query IDs received.
func (p *peer) seen() (conns, open int, asked []uint16) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns, p.open, append([]uint16(nil), p.asked...)
}
