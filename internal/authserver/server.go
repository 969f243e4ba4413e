package authserver

import (
	"context"
	"log"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/serve"
)

// QueryLogEntry records one query seen by the server. The paper uses
// the set of source addresses observed at the authoritative server to
// enumerate the recursive resolvers (and hence DoH points of presence)
// that contact it.
type QueryLogEntry struct {
	Time time.Time
	// Source is the querier's address and port, as a value so logging
	// a query allocates nothing.
	Source   netip.AddrPort
	Name     dnswire.Name
	Type     dnswire.Type
	Protocol string // "udp" or "tcp"
}

// Server serves a Zone authoritatively over UDP and TCP. Transport
// mechanics (socket sharding, datagram I/O, framing, graceful drain)
// live in the serve engine; this type supplies the DNS
// semantics: zone lookups, CNAME chasing and the query log.
type Server struct {
	Zone *Zone
	// Logger, when set, receives one line per malformed packet.
	Logger *log.Logger

	// Listeners is the number of the serving engine's listeners (see
	// serve.Options); zero means one. Set it before ListenAndServe. The
	// handler is CPU-light and runs inline on the reader.
	Listeners int

	// Protect configures the engine's overload protection (admission
	// budget, RRL, stream governance — see serve.Protection). The zero
	// value leaves every defense off. Protect.RateLimit is the server's
	// one response rate limiter (DNS amplification defense; UDP only, a
	// completed TCP handshake proves the source address): it sheds before
	// the handler runs, inside the engine's accounting identity.
	Protect serve.Protection
	// Registry files the engine's serve_* metrics; nil, a private one.
	Registry *obs.Registry

	// QueryLogLimit caps the in-memory query log. Once the log holds
	// this many entries each new query overwrites the oldest, so a
	// long-running server keeps a bounded window instead of growing
	// without limit. 0 means DefaultQueryLogLimit; a negative value
	// disables query logging entirely.
	QueryLogLimit int

	mu      sync.Mutex
	queries []QueryLogEntry // ring once len reaches the limit
	qhead   int             // oldest entry when the ring has wrapped
	// names holds the logged question names (guarded by mu), cut in the
	// order they are logged: as the ring overwrites its oldest entries,
	// the oldest chunks die with them.
	names  dnswire.StringChunks
	engine *serve.Server
}

// DefaultQueryLogLimit bounds the query log when QueryLogLimit is 0:
// enough to enumerate every resolver PoP the paper's vantage points
// uncover, small enough (~9 MB: 96 B an entry plus its name, 43 B for
// the measurement zone's UUID names) to never matter.
const DefaultQueryLogLimit = 1 << 16

// NewServer returns a server for zone, not yet listening.
func NewServer(zone *Zone) *Server { return &Server{Zone: zone} }

// ListenAndServe binds UDP and TCP on addr (e.g. "127.0.0.1:0") and
// serves until Shutdown. It returns once both listeners are
// accepting, so callers can immediately query Addr(). With an
// ephemeral port, the engine retries until a matching UDP/TCP port
// pair lines up.
func (s *Server) ListenAndServe(addr string) error {
	engine, err := serve.New(addr, serve.Options{
		Packet:     serve.PacketHandlerFunc(s.servePacket),
		Stream:     serve.StreamHandlerFunc(s.serveMessage),
		Listeners:  s.Listeners,
		Logf:       s.logf,
		Protection: s.Protect,
		Registry:   s.Registry,
	})
	if err != nil {
		return err
	}
	s.engine = engine
	return nil
}

// Addr returns the bound address, or "" before ListenAndServe.
func (s *Server) Addr() string { return s.engine.Addr() }

// Shutdown gracefully stops the server: intake stops at once and
// in-flight queries complete unless ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.engine == nil {
		return nil
	}
	return s.engine.Shutdown(ctx)
}

// QueryLog returns a snapshot of the query log, oldest first. When
// more than QueryLogLimit queries have arrived, only the most recent
// window is retained.
func (s *Server) QueryLog() []QueryLogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryLogEntry, 0, len(s.queries))
	out = append(out, s.queries[s.qhead:]...)
	return append(out, s.queries[:s.qhead]...)
}

// queryLogLimit is QueryLogLimit with 0 read as the default.
func (s *Server) queryLogLimit() int {
	if s.QueryLogLimit == 0 {
		return DefaultQueryLogLimit
	}
	return s.QueryLogLimit
}

func (s *Server) logQuery(e QueryLogEntry) {
	limit := s.queryLogLimit()
	if limit < 0 {
		return
	}
	s.mu.Lock()
	switch {
	case len(s.queries) < limit:
		if len(s.queries) == cap(s.queries) {
			s.growQueryLog(limit)
		}
		s.queries = append(s.queries, e)
	default:
		// Ring is full: overwrite the oldest entry. (If the limit was
		// lowered between queries the extra tail entries simply age
		// out as the head advances.)
		s.queries[s.qhead] = e
		s.qhead++
		if s.qhead >= len(s.queries) {
			s.qhead = 0
		}
	}
	s.mu.Unlock()
}

// queryLogFirstBlock is the log's first allocation: room for a server
// that sees a handful of queries (most tests, a zone probed once).
const queryLogFirstBlock = 256

// growQueryLog makes room in two steps: the first block, then the
// whole ring at once. Left to append, a log on its way to the default
// limit is re-copied some twenty times — five rings' worth of garbage
// and as many multi-megabyte copies under s.mu, spread over the first
// 65536 queries of a server under load, which is where a benchmark's
// measured window sits.
func (s *Server) growQueryLog(limit int) {
	n := queryLogFirstBlock
	if len(s.queries) >= n || limit < n {
		n = limit
	}
	// Oldest first, so a ring that wrapped under a lower limit keeps its
	// order when the limit is raised.
	grown := make([]QueryLogEntry, len(s.queries), n)
	k := copy(grown, s.queries[s.qhead:])
	copy(grown[k:], s.queries[:s.qhead])
	s.queries, s.qhead = grown, 0
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
	}
}

// servePacket answers one UDP datagram on the engine's scratch.
func (s *Server) servePacket(_ context.Context, out, raw []byte, src netip.AddrPort) ([]byte, error) {
	resp := s.handlePacket(raw, src, "udp")
	if resp == nil {
		return nil, nil
	}
	defer dnswire.PutMessage(resp)
	wire, err := resp.AppendPackLimit(out, dnswire.MaxUDPPayload)
	if err != nil {
		s.logf("authserver: pack: %v", err)
		return nil, nil
	}
	return wire, nil
}

// serveMessage answers one framed TCP query; a nil return closes the
// connection, matching how the legacy loop treated unparseable input.
func (s *Server) serveMessage(_ context.Context, out, raw []byte, src net.Addr) ([]byte, error) {
	var from netip.AddrPort
	if tcp, ok := src.(*net.TCPAddr); ok {
		from = tcp.AddrPort()
	}
	resp := s.handlePacket(raw, from, "tcp")
	if resp == nil {
		return nil, nil
	}
	defer dnswire.PutMessage(resp)
	wire, err := resp.AppendPack(out)
	if err != nil {
		s.logf("authserver: pack: %v", err)
		return nil, nil
	}
	return wire, nil
}

// handlePacket parses a raw query and produces the response message,
// or nil when the input is unparseable. The response comes from the
// message pool and shares nothing with anyone (zone lookups copy into
// it), so the caller puts it back once it is packed.
func (s *Server) handlePacket(raw []byte, src netip.AddrPort, proto string) *dnswire.Message {
	// The query is decoded into the pooled message its reply is then
	// built in (ReplyInto keeps the ID, opcode, RD flag and question and
	// empties the other sections): one message per query, not two.
	m := dnswire.GetMessage()
	// A logging server cuts the question name the log keeps from the
	// log's chunks first and lends it to the decode, which then makes no
	// string of its own; the pooled message's old question is dropped so
	// that the log never keeps a string cut from elsewhere. A packet that
	// then fails to decode wastes its cut; it is not logged.
	var hint dnswire.Message
	if s.queryLogLimit() > 0 {
		var name [dnswire.NameBufSize]byte
		if peeked, _, ok := dnswire.PeekQuestion(raw, &name); ok {
			s.mu.Lock()
			cut := dnswire.Name(s.names.Cut(peeked))
			s.mu.Unlock()
			hint.Questions = []dnswire.Question{{Name: cut}}
			m.Questions = m.Questions[:0]
		}
	}
	if err := dnswire.UnpackReplyInto(raw, m, &hint); err != nil || m.Header.Response || len(m.Questions) == 0 {
		if err != nil {
			s.logf("authserver: bad packet from %v: %v", src, err)
		}
		dnswire.PutMessage(m)
		return nil
	}
	s.logQuery(QueryLogEntry{
		Time: time.Now(), Source: src,
		Name: m.Questions[0].Name, Type: m.Questions[0].Type,
		Protocol: proto,
	})
	s.answer(m, m.ReplyInto(m))
	return m
}

// Answer produces the authoritative response for query q. It is
// exported so the virtual-network substrate can serve the same zone
// without sockets.
func (s *Server) Answer(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	s.answer(q, resp)
	return resp
}

// answer fills resp, the reply skeleton of q.
func (s *Server) answer(q, resp *dnswire.Message) {
	resp.Header.Authoritative = true
	if q.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.RCode = dnswire.RCodeNotImp
		return
	}
	question := q.Questions[0]
	rrs, result := s.Zone.lookupInto(resp.Answers[:0], question.Name, question.Type)
	switch result {
	case Success:
		resp.Answers = rrs
		// Chase in-zone CNAMEs so stub clients get the full chain.
		resp.Answers = append(resp.Answers, s.chaseCNAME(rrs, question.Type, 0)...)
	case Delegation:
		// Referral: NS RRset in the authority section plus any glue
		// addresses we know; not authoritative.
		resp.Header.Authoritative = false
		resp.Authorities = rrs
		for _, rr := range rrs {
			ns, ok := rr.Data.(dnswire.NSRecord)
			if !ok {
				continue
			}
			for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
				resp.Additionals = append(resp.Additionals, s.Zone.Glue(ns.NS, typ)...)
			}
		}
	case NoData:
		if soa, ok := s.Zone.SOA(); ok {
			resp.Authorities = append(resp.Authorities, soa)
		}
	case NXDomain:
		resp.Header.RCode = dnswire.RCodeNXDomain
		if soa, ok := s.Zone.SOA(); ok {
			resp.Authorities = append(resp.Authorities, soa)
		}
	case NotInZone:
		resp.Header.RCode = dnswire.RCodeRefused
	}
}

func (s *Server) chaseCNAME(rrs []dnswire.ResourceRecord, typ dnswire.Type, depth int) []dnswire.ResourceRecord {
	if depth > 8 || typ == dnswire.TypeCNAME {
		return nil
	}
	var out []dnswire.ResourceRecord
	for _, rr := range rrs {
		cn, ok := rr.Data.(dnswire.CNAMERecord)
		if !ok {
			continue
		}
		next, result := s.Zone.Lookup(cn.Target, typ)
		if result != Success {
			continue
		}
		out = append(out, next...)
		out = append(out, s.chaseCNAME(next, typ, depth+1)...)
	}
	return out
}
