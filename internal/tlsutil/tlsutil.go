// Package tlsutil generates the ephemeral self-signed certificates
// the loopback servers (DoH, DoT) use in tests, examples/quickstart,
// and the cmd/ tools when no certificate is supplied.
package tlsutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"time"
)

// SelfSigned returns an ephemeral Ed25519 certificate valid for host (an IP literal or
// DNS name, optionally host:port; a wildcard listener's empty or unspecified host: loopback).
func SelfSigned(host string) (tls.Certificate, error) {
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature, // RFC 8410: Ed25519 only signs
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	switch ip := net.ParseIP(host); {
	case host == "" || ip.IsUnspecified():
		tmpl.IPAddresses, tmpl.DNSNames = []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback}, []string{"localhost"}
	case ip != nil:
		tmpl.IPAddresses = []net.IP{ip}
	default:
		tmpl.DNSNames = []string{host}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, pub, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// ServerConfig wraps SelfSigned into a ready *tls.Config.
func ServerConfig(host string) (*tls.Config, error) {
	cert, err := SelfSigned(host)
	if err != nil {
		return nil, err
	}
	return &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}, nil
}

// InsecureClientConfig skips verification; loopback tests only.
func InsecureClientConfig() *tls.Config {
	return &tls.Config{InsecureSkipVerify: true}
}
