package tlsutil

import (
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"reflect"
	"testing"
)

// TestSelfSignedNamesWhatItServes: the leaf is Ed25519, signs only
// (RFC 8410), and names exactly the hosts a client reaches it by. A
// named host keeps its one name; a wildcard listener is reached on
// loopback, so its leaf names 127.0.0.1, ::1 and localhost. A client
// whose only root is the leaf completes a handshake with ServerConfig
// for every name the leaf carries and fails for one it does not.
func TestSelfSignedNamesWhatItServes(t *testing.T) {
	loopback := []string{"127.0.0.1", "::1", "localhost"}
	for _, tc := range []struct {
		host     string
		names    []string
		notNamed string
	}{
		{"127.0.0.1", []string{"127.0.0.1"}, "localhost"},
		{"127.0.0.1:8443", []string{"127.0.0.1"}, "::1"},
		{"[::1]:853", []string{"::1"}, "127.0.0.1"},
		{"localhost:8443", []string{"localhost"}, "127.0.0.1"},
		{"dns.example", []string{"dns.example"}, "localhost"},
		{"", loopback, "dns.example"},
		{":8443", loopback, "dns.example"},
		{"0.0.0.0:8443", loopback, "0.0.0.0"},
		{"[::]:853", loopback, "::"},
	} {
		cfg, err := ServerConfig(tc.host)
		if err != nil {
			t.Fatalf("%q: %v", tc.host, err)
		}
		cert := cfg.Certificates[0]
		if _, ok := cert.PrivateKey.(ed25519.PrivateKey); !ok {
			t.Errorf("%q: private key is %T, want ed25519.PrivateKey", tc.host, cert.PrivateKey)
		}
		leaf, err := x509.ParseCertificate(cert.Certificate[0])
		if err != nil {
			t.Fatalf("%q: %v", tc.host, err)
		}
		if leaf.PublicKeyAlgorithm != x509.Ed25519 || leaf.SignatureAlgorithm != x509.PureEd25519 {
			t.Errorf("%q: key %v signed %v, want Ed25519", tc.host, leaf.PublicKeyAlgorithm, leaf.SignatureAlgorithm)
		}
		if leaf.KeyUsage != x509.KeyUsageDigitalSignature {
			t.Errorf("%q: key usage %#x, want DigitalSignature only", tc.host, leaf.KeyUsage)
		}
		if !reflect.DeepEqual(leaf.ExtKeyUsage, []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth}) {
			t.Errorf("%q: extended key usage %v, want ServerAuth only", tc.host, leaf.ExtKeyUsage)
		}
		var named []string
		for _, ip := range leaf.IPAddresses {
			named = append(named, ip.String())
		}
		named = append(named, leaf.DNSNames...)
		if !reflect.DeepEqual(named, tc.names) {
			t.Errorf("%q: leaf names %q, want %q", tc.host, named, tc.names)
		}

		roots := x509.NewCertPool()
		roots.AddCert(leaf)
		for _, name := range tc.names {
			if err := handshake(cfg, roots, name); err != nil {
				t.Errorf("%q: handshake as %q: %v", tc.host, name, err)
			}
		}
		var hostErr x509.HostnameError
		if err := handshake(cfg, roots, tc.notNamed); !errors.As(err, &hostErr) {
			t.Errorf("%q: handshake as %q: %v, want a hostname mismatch", tc.host, tc.notNamed, err)
		}
	}
}

// handshake serves cfg on a loopback listener and dials it as name,
// trusting roots only; it returns the client's handshake error.
func handshake(cfg *tls.Config, roots *x509.CertPool, name string) error {
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.(*tls.Conn).Handshake() // the client reports the outcome
	}()
	conn, err := tls.Dial("tcp", ln.Addr().String(), &tls.Config{RootCAs: roots, ServerName: name})
	if err == nil {
		err = conn.Close()
	}
	ln.Close()
	<-served
	return err
}
