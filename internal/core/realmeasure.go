package core

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/proxynet"
)

// ProxyMeasurer is the real-socket measurement client: it performs
// the paper's DoH measurement procedure through an HTTP CONNECT proxy
// (CONNECT -> T_A/T_B with timing headers, TLS ClientHello -> T_C,
// DoH response -> T_D) and produces the same DoHObservation the
// simulator does, so EstimateDoH applies unchanged.
type ProxyMeasurer struct {
	// ProxyAddr is the Super Proxy's CONNECT endpoint.
	ProxyAddr string
	// TLSConfig configures the TLS session to the DoH server
	// (loopback tests use self-signed certificates).
	TLSConfig *tls.Config
}

// MeasureDoH resolves name via the DoH endpoint dohURL through the
// proxy and returns the observation plus the decoded DNS response.
func (m *ProxyMeasurer) MeasureDoH(ctx context.Context, dohURL string, name dnswire.Name) (proxynet.DoHObservation, *dnswire.Message, error) {
	var obs proxynet.DoHObservation
	u, err := url.Parse(dohURL)
	if err != nil {
		return obs, nil, fmt.Errorf("core: parsing DoH URL: %w", err)
	}
	host := u.Hostname()
	port := u.Port()
	if port == "" {
		if u.Scheme == "https" {
			port = "443"
		} else {
			port = "80"
		}
	}
	target := host + ":" + port

	// Steps 1-8: establish the tunnel. T_A .. T_B.
	conn, tun, timeline, tunnelDur, err := proxynet.DialViaProxy(ctx, m.ProxyAddr, target)
	if err != nil {
		return obs, nil, err
	}
	defer conn.Close()
	obs.Tun = tun
	obs.Proxy = timeline
	obs.TA = 0
	obs.TB = tunnelDur
	obs.QueryName = string(name)

	q := dnswire.NewQuery(dnsclient.RandomID(), name, dnswire.TypeA)
	wire, err := q.AppendPack(nil)
	if err != nil {
		return obs, nil, err
	}

	// Steps 9-14: TLS session. T_C is the ClientHello send time.
	obs.TC = obs.TB
	tcStart := time.Now()
	var rw io.ReadWriter = conn
	if u.Scheme == "https" {
		cfg := m.TLSConfig
		if cfg == nil {
			cfg = &tls.Config{ServerName: host, MinVersion: tls.VersionTLS12}
		}
		tlsConn := tls.Client(conn, cfg)
		if deadline, ok := ctx.Deadline(); ok {
			tlsConn.SetDeadline(deadline)
		}
		if err := tlsConn.HandshakeContext(ctx); err != nil {
			return obs, nil, fmt.Errorf("core: TLS handshake: %w", err)
		}
		defer tlsConn.Close()
		rw = tlsConn
	}

	// Steps 15-22: the DoH GET itself.
	path := u.Path
	if path == "" {
		path = "/dns-query"
	}
	fmt.Fprintf(rw, "GET %s?dns=%s HTTP/1.1\r\nHost: %s\r\nAccept: application/dns-message\r\nConnection: close\r\n\r\n",
		path, base64.RawURLEncoding.EncodeToString(wire), host)
	resp, err := http.ReadResponse(bufio.NewReader(rw), &http.Request{Method: http.MethodGet})
	if err != nil {
		return obs, nil, fmt.Errorf("core: reading DoH response: %w", err)
	}
	// Reuse audit: this exchange deliberately sends Connection: close on
	// a single-use tunnel conn (each cold measurement must pay the full
	// handshake), so there is no pooled connection to preserve; ReadAll
	// drains the body regardless.
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	obs.TD = obs.TC + time.Since(tcStart)
	if err != nil {
		return obs, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return obs, nil, fmt.Errorf("core: DoH server returned %s", resp.Status)
	}
	// Like a transport's, the answer is a pooled message the caller owns.
	msg := dnswire.GetMessage()
	if err := dnswire.UnpackInto(body, msg); err != nil {
		dnswire.PutMessage(msg)
		return obs, nil, fmt.Errorf("core: decoding DoH body: %w", err)
	}
	return obs, msg, nil
}

// MeasureDo53 performs the paper's Do53 measurement through the
// proxy: it fetches http://<name>:<port>/ so the exit side resolves
// the unique name with its default resolver; the proxy's DNS header
// value is the Do53 resolution time.
func (m *ProxyMeasurer) MeasureDo53(ctx context.Context, name dnswire.Name, port string) (proxynet.Do53Observation, error) {
	var obs proxynet.Do53Observation
	host := string(name)
	if len(host) > 0 && host[len(host)-1] == '.' {
		host = host[:len(host)-1]
	}
	target := host + ":" + port
	conn, tun, timeline, _, err := proxynet.DialViaProxy(ctx, m.ProxyAddr, target)
	if err != nil {
		return obs, err
	}
	defer conn.Close()
	obs.Tun = tun
	obs.Proxy = timeline
	obs.QueryName = string(name)

	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", host)
	resp, err := http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodGet})
	if err != nil {
		return obs, fmt.Errorf("core: web fetch: %w", err)
	}
	// Reuse audit: Connection: close on a one-shot conn, drained before
	// close anyway so the response is fully consumed off the tunnel.
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return obs, fmt.Errorf("core: web server returned %s", resp.Status)
	}
	return obs, nil
}
