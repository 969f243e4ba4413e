package authserver

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// AXFR (RFC 5936): full zone transfer over TCP, the replication
// mechanism secondary name servers use. The measurement deployment
// runs a single authoritative server, but a production zone would be
// replicated — and the transfer path doubles as a complete zone dump
// for operators.

// TypeAXFR is the AXFR query type (RFC 1035 §3.2.3).
const TypeAXFR dnswire.Type = 252

// TransferRecords returns the zone's records in AXFR order: the SOA,
// every explicit RRset, every wildcard RRset (with literal "*"
// owners), and the SOA again.
func (z *Zone) TransferRecords() ([]dnswire.ResourceRecord, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if !z.haveSOA {
		return nil, fmt.Errorf("authserver: zone %s has no SOA; cannot transfer", z.origin)
	}
	out := []dnswire.ResourceRecord{z.soa}
	for key, rrs := range z.rrsets {
		for _, rr := range rrs {
			if key.typ == dnswire.TypeSOA {
				continue // SOA bookends are added explicitly
			}
			out = append(out, rr)
		}
	}
	for base, rrs := range z.wildcard {
		for _, rr := range rrs {
			rr.Name = dnswire.NewName("*." + string(base))
			out = append(out, rr)
		}
	}
	out = append(out, z.soa)
	return out, nil
}

// answerAXFR fills resp, a reply skeleton, with the transfer (a single
// message here; large zones would chunk).
func (s *Server) answerAXFR(resp *dnswire.Message) error {
	records, err := s.Zone.TransferRecords()
	if err != nil {
		return err
	}
	resp.Header.Authoritative = true
	resp.Answers = records
	return nil
}

// RequestAXFR fetches a full zone from server addr over TCP and
// rebuilds it as a Zone — what a secondary does at refresh time.
func RequestAXFR(ctx context.Context, addr string, origin dnswire.Name) (*Zone, error) {
	q := dnswire.NewQuery(dnsclient.RandomID(), origin, TypeAXFR)
	q.Header.RecursionDesired = false

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("authserver: AXFR dial: %w", err)
	}
	defer conn.Close()
	deadline := time.Now().Add(15 * time.Second)
	if t, ok := ctx.Deadline(); ok && t.Before(deadline) {
		deadline = t
	}
	conn.SetDeadline(deadline)

	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if err := dnsclient.WriteTCPMessage(conn, wire); err != nil {
		return nil, fmt.Errorf("authserver: AXFR write: %w", err)
	}

	zone := NewZone(origin)
	soaSeen := 0
	for soaSeen < 2 {
		raw, err := dnsclient.ReadTCPMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("authserver: AXFR read: %w", err)
		}
		m, err := dnswire.Unpack(raw)
		if err != nil {
			return nil, fmt.Errorf("authserver: AXFR decode: %w", err)
		}
		if m.Header.RCode != dnswire.RCodeNoError {
			return nil, fmt.Errorf("authserver: AXFR refused: %s", m.Header.RCode)
		}
		if len(m.Answers) == 0 {
			return nil, fmt.Errorf("authserver: empty AXFR message")
		}
		for _, rr := range m.Answers {
			if rr.Type == dnswire.TypeSOA {
				soaSeen++
				if soaSeen == 2 {
					break
				}
			}
			if err := zone.Add(rr); err != nil {
				return nil, fmt.Errorf("authserver: AXFR record %s: %w", rr.Name, err)
			}
		}
	}
	return zone, nil
}
